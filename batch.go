package repro

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/shard"
)

// BatchResult is the outcome of a BatchQuery run: the per-query outcomes,
// outcome-for-outcome comparable with ParallelQueries, plus the executor's
// physical access accounting.
type BatchResult struct {
	// Outcomes pairs each spec with its result or error, exactly as
	// ParallelQueries reports them: per-query Stats record the query's own
	// logical consumption and match an independent run of the same spec.
	Outcomes []QueryOutcome
	// Scan is the shared scan's physical accounting: Sorted/PerList count
	// entries actually pulled from the database (each list is scanned once,
	// to the deepest consumer's depth, however many queries read it),
	// Random counts the pass-through random probes, and MaxBuffered sums
	// the per-list peak window lengths — an upper bound on simultaneous
	// executor memory, bounded by the fastest-to-slowest consumer spread
	// rather than the scan depth. With Q similar queries Scan.Sorted sits
	// near 1/Q of the summed per-query sorted accesses.
	Scan Stats
}

// BatchQuery runs many queries over the same database concurrently while
// sharing one physical sorted scan per list between them — the middleware
// serving several users whose queries hit the same subsystems. Where
// ParallelQueries gives every query its own cursors and therefore re-scans
// each list once per query, BatchQuery attaches all queries to a shared
// per-list window the subsystem fills exactly once; each query still keeps
// its own threshold, buffer and accounting, so results, errors and
// per-query Stats are identical to running the specs independently.
//
// workers bounds the concurrency exactly as in ParallelQueries, and specs
// are validated up front the same way — a malformed spec never reaches the
// worker pool. Sharded specs (Opts.Shards != 0) are rejected with
// ErrBadQuery: sharding partitions the database per query, which defeats
// the shared scan; use ParallelQueries for those.
func BatchQuery(db *Database, specs []QuerySpec, workers int) *BatchResult {
	br := &BatchResult{Outcomes: make([]QueryOutcome, len(specs))}
	valid := make([]int, 0, len(specs))
	plans := make([]plan, 0, len(specs))
	for i := range specs {
		br.Outcomes[i].Spec = specs[i]
		pl, err := resolveQuery(target{db: db, batch: true}, specs[i].Agg, specs[i].K, specs[i].Opts)
		if err != nil {
			br.Outcomes[i].Err = fmt.Errorf("repro: query %d: %w", i, err)
			continue
		}
		valid = append(valid, i)
		plans = append(plans, pl)
	}
	if len(valid) == 0 {
		return br
	}
	lists := make([]access.ListSource, db.M())
	for i := 0; i < db.M(); i++ {
		lists[i] = db.List(i)
	}
	scan := access.NewSharedScan(lists)
	// Attach every query before any worker starts consuming, so no query
	// begins below an already-trimmed window; each worker releases its
	// consumer as soon as its query finishes, letting the sliding windows
	// trim past it instead of buffering to the deepest scan.
	srcs := make([]*access.Source, len(valid))
	releases := make([]func(), len(valid))
	for j, pl := range plans {
		srcs[j], releases[j] = scan.Attach(pl.policy)
	}
	shard.ForEach(len(valid), workers, func(j int) {
		i := valid[j]
		defer releases[j]()
		res, err := plans[j].algo.Run(srcs[j], specs[i].Agg, specs[i].K)
		if err != nil {
			err = fmt.Errorf("repro: query %d: %w", i, err)
		}
		br.Outcomes[i].Result = res
		br.Outcomes[i].Err = err
	})
	br.Scan = scan.Stats()
	return br
}
