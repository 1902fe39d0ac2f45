package repro

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/shard"
)

// target is what a query runs on, and so which part of the Options lattice
// it admits. Query runs on a database: sequentially when Shards is 0, on a
// sharded stack built for the query otherwise. BatchQuery runs on a
// database under its shared scan. QuerySharded runs on a prebuilt engine.
type target struct {
	db *Database
	// batch marks BatchQuery's shared scan: sequential, over the database's
	// own lists, so neither Shards nor a stack spec composes with it.
	batch bool
	// engine is QuerySharded's engine, which fixes the shard count and the
	// access stack.
	engine *Sharded
}

// shape returns the list and object counts a query on the target sees.
func (on target) shape() (m, n int, err error) {
	if on.engine != nil {
		return on.engine.M(), on.engine.N(), nil
	}
	return dims(on.db)
}

// dims returns db's list and object counts, rejecting a nil database.
func dims(db *Database) (m, n int, err error) {
	if db == nil {
		return 0, 0, fmt.Errorf("%w: nil database", ErrBadQuery)
	}
	return db.M(), db.N(), nil
}

// plan is a resolved query: the sequential algorithm and access policy, or
// the shard count and engine options, plus the normalized cost model and
// the resolved retry policy either path runs under.
type plan struct {
	algo   core.Algorithm
	policy access.Policy
	// shards is 0 on the sequential path; AutoShards until resolveQuery
	// knows N and k.
	shards int
	shard  shard.Options
	costs  CostModel
	retry  Retry
}

// resolve is the one place the Options rules live (docs/ARCHITECTURE.md,
// "Option rules"): it checks opts for the target and returns the plan that
// runs them. Query, BatchQuery, ParallelQueries, QuerySharded and
// ReplayTrace call it before they partition or scan anything. The rules on
// a single engine option — MinTheta, worker and retry bounds, the cost
// model, the schedule — are shard.ValidateOptions', which the engine also
// runs for its direct callers; the sequential path is judged by the same
// function, on the shard.Options it resolves alongside its algorithm.
func resolve(on target, opts Options) (plan, error) {
	m, _, err := on.shape()
	if err != nil {
		return plan{}, err
	}
	shards := opts.Shards
	switch {
	case on.engine != nil:
		// Partition clamps a count above N to N, so such a count names an
		// N-shard engine too.
		p := on.engine.Shards()
		if shards != 0 && min(shards, on.engine.N()) != p {
			return plan{}, fmt.Errorf("%w: the engine has %d shards; Shards must be 0 or %d, got %d", ErrBadQuery, p, p, shards)
		}
		if opts.Backend != nil || opts.Fault != nil || opts.Cache != nil {
			return plan{}, fmt.Errorf("%w: the engine fixes its access stack; Backend, Fault and Cache must be nil", ErrBadQuery)
		}
		shards = p
	case on.batch && shards != 0:
		return plan{}, fmt.Errorf("%w: sharded specs do not compose with the shared scan; use ParallelQueries", ErrBadQuery)
	case on.batch && (opts.Backend != nil || opts.Fault != nil || opts.Cache != nil):
		return plan{}, fmt.Errorf("%w: per-query backend stacks do not compose with the shared scan; use ParallelQueries", ErrBadQuery)
	case shards < 0 && shards != AutoShards:
		return plan{}, fmt.Errorf("%w: Shards must be non-negative (or AutoShards), got %d", ErrBadQuery, shards)
	}
	if !(opts.Theta == 0 || opts.Theta >= 1) || math.IsInf(opts.Theta, 1) {
		return plan{}, fmt.Errorf("%w: θ must be 0 or a finite value of at least 1, got %g", ErrBadQuery, opts.Theta)
	}
	name := opts.Algorithm
	if name == "" {
		name = AlgoTA
		if opts.NoRandomAccess {
			name = AlgoNRA
		}
	}
	if opts.CostAwareTA && name != AlgoTA {
		return plan{}, fmt.Errorf("%w: CostAwareTA requires the TA algorithm, got %q", ErrBadQuery, name)
	}
	// TA completes a grade by random access only when there is more than
	// one list: on one list it runs sorted-only, sequentially in core.TA
	// and sharded in the engine's no-random-access mode.
	if name == AlgoTA && opts.NoRandomAccess && m > 1 {
		return plan{}, fmt.Errorf("%w: TA needs random access on %d lists; drop NoRandomAccess or use AlgoNRA for sorted-only queries", ErrBadQuery, m)
	}
	if (opts.CostAwareTA || shards != 0) && opts.Theta > 1 {
		return plan{}, fmt.Errorf("%w: cost-aware TA and the sharded engine compute exact answers; θ-approximation is not supported", ErrBadQuery)
	}
	costs, err := core.NormalizeCosts(opts.Costs)
	if err != nil {
		return plan{}, err
	}
	pl := plan{shards: shards, costs: costs, retry: opts.Retry.Resolve()}
	pl.shard = shard.Options{
		Workers:        opts.ShardWorkers,
		CostAwareTA:    opts.CostAwareTA,
		Costs:          costs,
		NoRandomAccess: opts.NoRandomAccess || name == AlgoNRA,
		Schedule:       opts.Schedule,
		Retry:          opts.Retry,
		MinTheta:       opts.MinTheta,
	}
	if shards != 0 {
		switch {
		case name != AlgoTA && name != AlgoNRA:
			return plan{}, fmt.Errorf("%w: sharding supports only the TA and NRA algorithms, got %q", ErrBadQuery, name)
		case len(opts.SortedLists) > 0:
			return plan{}, fmt.Errorf("%w: sharding does not support restricting sorted access (TAz)", ErrBadQuery)
		case opts.OnProgress != nil:
			return plan{}, fmt.Errorf("%w: sharding does not support the OnProgress callback", ErrBadQuery)
		}
	} else {
		switch {
		case opts.Schedule != ScheduleAuto:
			return plan{}, fmt.Errorf("%w: scheduling policies apply only to sharded no-random-access queries", ErrBadQuery)
		case opts.MinTheta != 0:
			return plan{}, fmt.Errorf("%w: MinTheta applies to sharded queries; the sequential path has no surviving shards to degrade over", ErrBadQuery)
		case opts.Fault != nil && name != AlgoTA && name != AlgoNRA && name != AlgoCA:
			return plan{}, fmt.Errorf("%w: fault injection requires a failure-aware algorithm (TA, NRA or CA), got %q", ErrBadQuery, name)
		}
		if pl.algo, pl.policy, err = sequential(m, name, costs, opts); err != nil {
			return plan{}, err
		}
	}
	if err := shard.ValidateOptions(pl.shard); err != nil {
		return plan{}, err
	}
	if err := validateSpecs(m, opts.Backend, opts.Fault, opts.Cache); err != nil {
		return plan{}, err
	}
	return pl, nil
}

// resolveQuery is resolve for one query of t and k: it also checks the
// query's shape and picks the AutoShards count, so a malformed query is
// rejected before any database is partitioned.
func resolveQuery(on target, t AggFunc, k int, opts Options) (plan, error) {
	pl, err := resolve(on, opts)
	if err != nil {
		return plan{}, err
	}
	m, n, _ := on.shape() // resolve rejected a nil database
	if err := core.ValidateQueryShape(m, n, t, k); err != nil {
		return plan{}, err
	}
	if pl.shards == AutoShards {
		pl.shards = shard.AutoShards(n, k, runtime.GOMAXPROCS(0))
	}
	return pl, nil
}

// sequential builds the sequential path's algorithm and access policy over
// m lists.
func sequential(m int, name AlgorithmName, costs CostModel, opts Options) (core.Algorithm, access.Policy, error) {
	policy := access.Policy{NoRandom: opts.NoRandomAccess}
	if len(opts.SortedLists) > 0 {
		policy.SortedLists = make(map[int]bool, len(opts.SortedLists))
		for _, i := range opts.SortedLists {
			if i < 0 || i >= m {
				return nil, access.Policy{}, fmt.Errorf("%w: sorted list index %d out of range [0,%d)", ErrBadQuery, i, m)
			}
			policy.SortedLists[i] = true
		}
	}
	switch name {
	case AlgoTA:
		if opts.CostAwareTA {
			return &core.CostAwareTA{Costs: costs, OnProgress: opts.OnProgress}, policy, nil
		}
		return &core.TA{Theta: opts.Theta, OnProgress: opts.OnProgress}, policy, nil
	case AlgoFA:
		return core.FA{}, policy, nil
	case AlgoNRA:
		return &core.NRA{OnProgress: opts.OnProgress}, policy, nil
	case AlgoCA:
		return &core.CA{Costs: costs}, policy, nil
	case AlgoNaive:
		return core.Naive{}, policy, nil
	case AlgoMaxTopK:
		return core.MaxTopK{}, policy, nil
	}
	return nil, access.Policy{}, fmt.Errorf("%w: unknown algorithm %q", ErrBadQuery, name)
}

// run executes a plan Query resolved: on a sharded stack built for the
// query, or sequentially over a fresh Source.
func (pl plan) run(db *Database, t AggFunc, k int, opts Options) (*Result, error) {
	if pl.shards == 0 {
		return pl.algo.Run(pl.source(db, opts), t, k)
	}
	eng, err := newShardedStack(db, pl.shards, opts.Backend, opts.Fault, opts.Cache, pl.costs)
	if err != nil {
		return nil, err
	}
	return eng.Query(t, k, pl.shard)
}

// source opens the sequential path's accounting Source over the access
// stack opts configures (simulated remote backends, the fault injector
// and a query-lifetime cache; the database's own lists when it configures
// none).
func (pl plan) source(db *Database, opts Options) *access.Source {
	backend := opts.Backend
	if backend != nil && backend.StragglerShards != 0 {
		// One logical backend set: straggler marking is per shard and does
		// not apply here.
		spec := *backend
		spec.StragglerShards = 0
		backend = &spec
	}
	sb := buildShard(db, 0, 1, backend, opts.Fault, opts.Cache, pl.costs)
	if sb.Lists == nil {
		return access.New(db, pl.policy)
	}
	src := access.FromLists(sb.Lists, pl.policy)
	src.SetRetry(pl.retry)
	return src
}

// validateSpecs rejects malformed access-stack specs over m lists; every
// path that builds a stack runs it. Every float must be finite (the range
// checks are written so NaN fails them). Declared backend costs must be a
// valid cost model, or both zero, meaning "inherit"; negative costs are
// refused outright — they would flip the cost-aware scheduler's priorities
// and produce negative charged totals.
func validateSpecs(m int, b *BackendSpec, f *FaultSpec, c *CacheSpec) error {
	if b != nil {
		if !(b.SortedCost >= 0 && b.RandomCost >= 0) || !finite(b.SortedCost) || !finite(b.RandomCost) {
			return fmt.Errorf("%w: backend costs must be finite and non-negative, got cS=%g cR=%g", ErrBadQuery, b.SortedCost, b.RandomCost)
		}
		if b.SortedCost == 0 && b.RandomCost > 0 {
			return fmt.Errorf("%w: backend sorted-access cost must be positive when a random cost is declared", ErrBadQuery)
		}
		if b.Latency < 0 {
			return fmt.Errorf("%w: backend latency must be non-negative, got %v", ErrBadQuery, b.Latency)
		}
		if !(b.Jitter >= 0 && b.Jitter <= 1) {
			return fmt.Errorf("%w: backend jitter must be in [0, 1], got %g", ErrBadQuery, b.Jitter)
		}
		if b.StragglerShards < 0 || !(b.StragglerFactor >= 0) || !finite(b.StragglerFactor) {
			return fmt.Errorf("%w: straggler configuration must be finite and non-negative, got shards=%d factor=%g", ErrBadQuery, b.StragglerShards, b.StragglerFactor)
		}
		if !(b.BatchMarginal >= 0 && b.BatchMarginal <= 1) {
			return fmt.Errorf("%w: backend batch marginal must be in [0, 1], got %g", ErrBadQuery, b.BatchMarginal)
		}
	}
	if f != nil {
		if !(f.Rate >= 0 && f.Rate <= 1) {
			return fmt.Errorf("%w: fault rate must be in [0, 1], got %g", ErrBadQuery, f.Rate)
		}
		if f.BurstEvery < 0 || f.BurstLen < 0 {
			return fmt.Errorf("%w: fault burst configuration must be non-negative, got every=%d len=%d", ErrBadQuery, f.BurstEvery, f.BurstLen)
		}
		if f.DeadList < 0 || f.DeadList > m {
			return fmt.Errorf("%w: DeadList must be in [0, %d] (1-based; 0 kills nothing), got %d", ErrBadQuery, m, f.DeadList)
		}
		if f.Hang < 0 {
			return fmt.Errorf("%w: fault hang must be non-negative, got %v", ErrBadQuery, f.Hang)
		}
	}
	if c != nil {
		if !finite(c.ColdHitCost) {
			return fmt.Errorf("%w: cache cold-hit cost must be finite, got %g", ErrBadQuery, c.ColdHitCost)
		}
		if c.PageSize < 0 || c.Pages < 0 || c.Memo < 0 {
			return fmt.Errorf("%w: cache sizes must be non-negative (0 takes the default), got page size %d, pages %d, memo %d", ErrBadQuery, c.PageSize, c.Pages, c.Memo)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
