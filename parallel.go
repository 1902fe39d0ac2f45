package repro

import (
	"fmt"

	"repro/internal/shard"
)

// QuerySpec is one query in a batch.
type QuerySpec struct {
	// Agg and K define the query.
	Agg AggFunc
	K   int
	// Opts configures the algorithm, policy and cost model.
	Opts Options
}

// QueryOutcome pairs a batch query with its result or error.
type QueryOutcome struct {
	Spec   QuerySpec
	Result *Result
	Err    error
}

// ParallelQueries runs many independent queries over the same database
// concurrently — the middleware serving several users at once. Each query
// gets its own access cursors and accounting, so results and costs are
// identical to running the queries sequentially. workers bounds the
// concurrency: 0 (or any value of at least len(specs)) means one worker
// per query; batch queries and intra-query sharding share the same worker
// pool implementation (see internal/shard.ForEach).
//
// Specs are resolved up front under Query's rules: a malformed spec — nil
// Agg, K < 1, K exceeding the database size, an aggregation arity that does
// not match the database, or an option combination Query rejects — has its
// error recorded in its outcome without ever reaching the worker pool, so
// it cannot cost a worker goroutine or delay the well-formed queries. Each
// well-formed spec then runs exactly as Query runs it.
func ParallelQueries(db *Database, specs []QuerySpec, workers int) []QueryOutcome {
	out := make([]QueryOutcome, len(specs))
	valid := make([]int, 0, len(specs))
	plans := make([]plan, len(specs))
	for i := range specs {
		out[i].Spec = specs[i]
		pl, err := resolveQuery(target{db: db}, specs[i].Agg, specs[i].K, specs[i].Opts)
		if err != nil {
			out[i].Err = fmt.Errorf("repro: query %d: %w", i, err)
			continue
		}
		valid = append(valid, i)
		plans[i] = pl
	}
	shard.ForEach(len(valid), workers, func(j int) {
		i := valid[j]
		spec := specs[i]
		res, err := plans[i].run(db, spec.Agg, spec.K, spec.Opts)
		if err != nil {
			err = fmt.Errorf("repro: query %d: %w", i, err)
		}
		out[i].Result = res
		out[i].Err = err
	})
	return out
}
