// Package shard implements a sharded concurrent top-k engine on top of the
// threshold algorithm of Fagin, Lotem and Naor (PODS 2001). The database is
// partitioned into object-disjoint shards (model.Database.Partition), one
// TA worker goroutine runs per shard against its own accounting
// access.Source, and a coordinator merges every shard's candidates into a
// global top-k heap.
//
// Early stopping mirrors TA's threshold argument, distributed: each worker
// exposes its per-shard threshold τ_s after every sorted access, and the
// global threshold τ_global = max over live shards of τ_s bounds the grade
// of every unseen object anywhere. The coordinator cancels shard s as soon
// as τ_s falls strictly below the global kth grade — no unseen object of s
// can still reach the answer — and once τ_global itself is strictly below
// the kth grade that rule has cancelled every worker, which is exactly the
// global TA stopping rule. Workers run TA with StrictStop, so the merged
// answer is canonical — the top k by (grade descending, ObjectID
// ascending) — and therefore identical for every shard count, including
// the unsharded P=1 run.
//
// The hot path is kept cheap: a worker takes the coordinator lock only
// when its local top-k gained items it has not merged before, and merges
// just those; otherwise it just reads the global kth grade from an atomic
// and compares it against its threshold.
package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
)

// Schedule selects how the no-random-access coordinator schedules shard
// work (see nra.go). TA-mode queries have no resume loop to schedule, so
// any explicit Schedule there is rejected with ErrBadQuery.
type Schedule string

const (
	// ScheduleAuto (the zero value) resolves to ScheduleWave.
	ScheduleAuto Schedule = ""
	// ScheduleWave resumes every unresolved shard concurrently each wave —
	// the wall-clock-optimal default when backends cost the same.
	ScheduleWave Schedule = "wave"
	// ScheduleCostAware runs one shard at a time, always the shard whose
	// B-ceiling exceeds the global M_k the most per unit of expected
	// per-round cost (a never-run shard's ceiling is +Inf, so ties resolve
	// toward the cheapest backend). Expensive shards therefore run last,
	// against an M_k the cheap shards have already raised, and pause far
	// shallower than they would in a wave — trading intra-query
	// parallelism for charged middleware cost on skewed backend sets.
	ScheduleCostAware Schedule = "cost-aware"
	// ScheduleAdaptive is ScheduleCostAware with observed-cost feedback:
	// resumes are bounded probes (adaptiveProbeRounds rounds), each
	// probe's wall-clock per round feeds a per-shard EWMA estimator, and
	// the scheduler ranks shards by the estimates instead of the declared
	// step costs once a shard has been observed. Use it when backends'
	// declared cost models cannot be trusted — the estimator re-prices a
	// lying backend within a few probes, and degrades to exactly the
	// declared costs when the backends tell the truth (in particular a
	// single-shard run schedules identically to ScheduleCostAware).
	ScheduleAdaptive Schedule = "adaptive"
)

// ShardStat is one shard's per-query observability record: its worker's
// access accounting, the observed wall-clock the worker spent driving the
// shard (which includes any backend latency — the signal that separates a
// straggler subsystem from a cheap one), and how many times the scheduler
// resumed it after a pause.
type ShardStat struct {
	Stats   access.Stats
	Elapsed time.Duration
	Resumes int
	// Dead reports that the shard was lost permanently during the query —
	// its backend failed past the retry budget — and the answer was degraded
	// to a θ-approximation without the shard's full evidence.
	Dead bool
}

// Options configures one sharded query.
type Options struct {
	// Workers bounds the number of concurrently running shard workers;
	// 0 means one goroutine per shard, and negative values are rejected
	// with ErrBadQuery.
	Workers int
	// CostAwareTA replaces the TA-mode workers with core.CostAwareTA: each
	// shard allocates sorted accesses cheapest-threshold-drop-first
	// (core.Delta) and spends random access at the CA cadence h ≈
	// cR/cS derived from its backends' declared costs, instead of
	// resolving every encountered object immediately. Answers carry exact
	// grades and the same true-grade multiset as the plain TA mode, but
	// ties at the k-th grade are broken arbitrarily rather than
	// canonically, so tied object sets may differ between shard counts.
	// Incompatible with NoRandomAccess (rejected with ErrBadQuery): the
	// sorted-only mode spends no random accesses to plan, and its
	// cost-awareness lives in Options.Schedule instead.
	CostAwareTA bool
	// Costs is the cost model cost-aware TA workers derive their phase
	// period h from when a shard's backends declare no costs of their own
	// (declared backend costs always win). Zero means unit costs. Ignored
	// without CostAwareTA, but validated in every mode exactly as the
	// sequential path validates its cost model (core.NormalizeCosts).
	Costs access.CostModel
	// NoRandomAccess answers the query with one resumable NRA worker per
	// shard instead of TA workers — sorted access only, the search-engine
	// scenario of Section 8.1 (see nra.go). The answer is the exact top-k
	// *object set* with [W, B] grade intervals; Result.Stats.Random is
	// always zero.
	NoRandomAccess bool
	// Schedule selects the no-random-access scheduling policy; the zero
	// value is ScheduleAuto (wave). ScheduleCostAware optimizes charged
	// middleware cost on heterogeneous backends at the expense of
	// parallelism. Setting a non-auto schedule without NoRandomAccess is
	// rejected with ErrBadQuery.
	Schedule Schedule
	// Retry is the per-query retry policy every shard worker arms its
	// Source with: transient backend failures (errors wrapping
	// access.ErrBackend, except access.ErrListDown) are retried in place
	// with capped exponential backoff, honoring ctx at every attempt. The
	// zero value resolves to access.DefaultRetry; set MaxAttempts to 1 to
	// disable retries entirely. Negative bounds are rejected with
	// ErrBadQuery.
	Retry access.Retry
	// MinTheta is the weakest θ-approximation guarantee (Section 6.2) the
	// caller accepts when shards are lost permanently and the answer
	// degrades: 0 accepts any finite certified θ, a value ≥ 1 fails the
	// query (with the underlying backend error) when the surviving shards
	// certify only θ > MinTheta. Values in (0, 1), negative and non-finite
	// values are rejected with ErrBadQuery — θ is by definition a finite
	// value of at least 1. Fault-free answers (θ = 1) always pass.
	MinTheta float64
	// OnShardStats, when non-nil, is invoked once just before the query
	// returns successfully with every shard's per-worker accounting,
	// observed wall-clock, resume count and death flag, indexed by shard.
	OnShardStats func([]ShardStat)
}

// ValidateOptions checks opts against the rules every sharded query obeys:
// MinTheta is 0 or a finite θ of at least 1 (NaN fails both tests); the
// worker bound and retry bounds are non-negative (zero takes the default);
// the cost model is one core.NormalizeCosts accepts; the schedule is a
// known one and applies only to the no-random-access mode, in which
// cost-aware TA, needing random access, cannot run. QueryContext runs it
// for every caller of the engine, and repro's Options resolver runs it
// before partitioning anything.
func ValidateOptions(opts Options) error {
	if !(opts.MinTheta == 0 || opts.MinTheta >= 1) || math.IsInf(opts.MinTheta, 1) {
		return fmt.Errorf("%w: MinTheta must be 0 (accept any certified θ) or a finite value of at least 1, got %g", core.ErrBadQuery, opts.MinTheta)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("%w: shard worker count must be non-negative, got %d", core.ErrBadQuery, opts.Workers)
	}
	if r := opts.Retry; r.MaxAttempts < 0 || r.Budget < 0 || r.Base < 0 || r.Max < 0 {
		return fmt.Errorf("%w: retry bounds must be non-negative (0 takes the default), got %+v", core.ErrBadQuery, r)
	}
	if _, err := core.NormalizeCosts(opts.Costs); err != nil {
		return err
	}
	if opts.CostAwareTA && opts.NoRandomAccess {
		return fmt.Errorf("%w: cost-aware TA needs random access; the no-random-access mode plans costs through Options.Schedule instead", core.ErrBadQuery)
	}
	switch opts.Schedule {
	case ScheduleAuto:
	case ScheduleWave, ScheduleCostAware, ScheduleAdaptive:
		if !opts.NoRandomAccess {
			return fmt.Errorf("%w: scheduling policies apply to the no-random-access mode; TA workers run once under threshold cancellation and have no resume loop to schedule", core.ErrBadQuery)
		}
	default:
		return fmt.Errorf("%w: unknown schedule %q", core.ErrBadQuery, opts.Schedule)
	}
	return nil
}

// Engine is a database partitioned for sharded querying. Partitioning
// happens once at construction; the engine is immutable afterwards and
// safe for concurrent Query calls, each of which gets fresh per-shard
// access.Sources and accounting. Shards built FromBackends carry an
// access stack (remote backends, a shared per-shard cache) that every
// query's Source reads through; the caches are the engine's only mutable
// state and are themselves safe for concurrent use.
type Engine struct {
	shards []*model.Database
	lists  [][]access.ListSource // per-shard access stacks; nil = direct DB lists
	caches []*access.Cache       // per-shard caches (nil where none)
	pools  []sync.Pool           // per-shard recycled accounting Sources
	m      int
	n      int // total objects across shards
}

// taBatchRounds is the sorted-round prefetch budget TA-mode shard workers
// run with (core.TA.Batch): enough rounds to amortize the per-access Source
// and progress-hook overhead, small enough that the up-to-Batch-1 discarded
// prefetch on stop stays negligible next to a shard's scan depth.
const taBatchRounds = 32

// New partitions db into p object-disjoint shards (see
// model.Database.Partition; p is clamped to the number of objects).
func New(db *model.Database, p int) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("shard: %w: nil database", core.ErrBadQuery)
	}
	shards, err := db.Partition(p)
	if err != nil {
		return nil, err
	}
	bs := make([]ShardBackend, len(shards))
	for i, sdb := range shards {
		bs[i] = ShardBackend{DB: sdb}
	}
	return FromBackends(bs)
}

// ShardBackend couples one shard's database with the access stack its
// queries go through. DB carries the shard's data and object bookkeeping
// (disjointness validation, shard sizes). Lists, when non-nil, is the
// stack queries actually read — typically the DB's lists wrapped as
// simulated remote backends (access.NewRemote) and/or behind a shared
// per-shard cache (access.Cache.Wrap); nil means queries read the DB's
// lists directly. Cache, when non-nil, lets the engine report the shard's
// cache statistics (Engine.CacheStats); it should be the cache the Lists
// stack was built over.
type ShardBackend struct {
	DB    *model.Database
	Lists []access.ListSource
	Cache *access.Cache
}

// FromBackends assembles an engine whose shards sit behind explicit access
// stacks — the paper's middleware scenario: autonomous subsystems with
// their own access costs, fronted by caches, aggregated by one
// coordinator. Every shard's DB must be non-nil; shards must agree on the
// number of lists and be object-disjoint; and a non-nil Lists must match
// the shard's shape (one source per list, each serving the shard's N
// objects).
func FromBackends(shards []ShardBackend) (*Engine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: %w: need at least one shard", core.ErrBadQuery)
	}
	var m, total int
	e := &Engine{
		shards: make([]*model.Database, len(shards)),
		lists:  make([][]access.ListSource, len(shards)),
		caches: make([]*access.Cache, len(shards)),
	}
	for s, sb := range shards {
		db := sb.DB
		if db == nil {
			return nil, fmt.Errorf("shard: %w: shard %d is nil", core.ErrBadQuery, s)
		}
		if s == 0 {
			m = db.M()
		} else if db.M() != m {
			return nil, fmt.Errorf("shard: %w: shard %d has %d lists, want %d", core.ErrBadQuery, s, db.M(), m)
		}
		if sb.Lists != nil {
			if len(sb.Lists) != db.M() {
				return nil, fmt.Errorf("shard: %w: shard %d has %d backend lists, want %d", core.ErrBadQuery, s, len(sb.Lists), db.M())
			}
			for i, l := range sb.Lists {
				if l == nil {
					return nil, fmt.Errorf("shard: %w: shard %d backend list %d is nil", core.ErrBadQuery, s, i)
				}
				if l.Len() != db.N() {
					return nil, fmt.Errorf("shard: %w: shard %d backend list %d serves %d entries, want %d", core.ErrBadQuery, s, i, l.Len(), db.N())
				}
			}
		}
		total += db.N()
		e.shards[s] = db
		e.lists[s] = sb.Lists
		e.caches[s] = sb.Cache
	}
	if err := disjoint(e.shards); err != nil {
		return nil, err
	}
	e.m, e.n = m, total
	e.pools = make([]sync.Pool, len(shards))
	return e, nil
}

// disjoint fails on the smallest object two shards share. It merges the
// shards' object lists, which model.Database keeps ascending, through a
// heap of the shards with objects left: O(N log P) time and O(P) space
// for every shard count, P = N included.
func disjoint(dbs []*model.Database) error {
	pos := make([]int, len(dbs))
	next := func(s int) model.ObjectID { return dbs[s].Objects()[pos[s]] }
	// Ties go to the lower shard, so a shared object's two shards leave
	// the heap in ascending order, one right after the other.
	less := func(a, b int) bool { return next(a) < next(b) || next(a) == next(b) && a < b }
	var h []int
	down := func(i int) {
		for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	for s, db := range dbs {
		if db.N() > 0 {
			h = append(h, s)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var last model.ObjectID
	lastShard := -1
	for len(h) > 0 {
		s := h[0]
		obj := next(s)
		if lastShard >= 0 && obj == last {
			return fmt.Errorf("shard: %w: object %d appears in shards %d and %d", core.ErrBadQuery, obj, lastShard, s)
		}
		last, lastShard = obj, s
		if pos[s]++; pos[s] == dbs[s].N() {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return nil
}

// source opens an accounting Source over shard s's access stack, recycling
// one from an earlier query on the shard when available: a recycled Source
// rewinds its cursors and clears its accounting while keeping its seen-set
// and slice capacity, so the per-query index allocations are paid once per
// shard, not once per query.
func (e *Engine) source(s int, policy access.Policy) *access.Source {
	if v := e.pools[s].Get(); v != nil {
		src := v.(*access.Source)
		src.ResetFor(policy)
		return src
	}
	if ls := e.lists[s]; ls != nil {
		return access.FromLists(ls, policy)
	}
	return access.New(e.shards[s], policy)
}

// CacheStats returns each shard's cache statistics, indexed by shard;
// shards without a cache report zero stats. Caches persist across queries,
// so the numbers are engine-lifetime cumulative.
func (e *Engine) CacheStats() []access.CacheStats {
	out := make([]access.CacheStats, len(e.caches))
	for s, c := range e.caches {
		if c != nil {
			out[s] = c.Stats()
		}
	}
	return out
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// M returns the number of lists (attributes).
func (e *Engine) M() int { return e.m }

// N returns the total number of objects across all shards.
func (e *Engine) N() int { return e.n }

// Query runs a sharded top-k query; see QueryContext.
func (e *Engine) Query(t agg.Func, k int, opts Options) (*core.Result, error) {
	return e.QueryContext(context.Background(), t, k, opts)
}

// noKth is the atomic kth-grade sentinel while the global heap is not yet
// full: grades are non-negative, so no threshold compares below it and no
// shard is cancelled prematurely.
const noKth = -1.0

// coordinator is the shared state behind one TA-mode query: the global
// canonical top-k heap plus the cancellation bound derived from it.
type coordinator struct {
	mu      sync.Mutex
	top     *core.TopKBuffer
	kthBits atomic.Uint64 // Float64bits of the global kth grade, noKth until full
}

func newCoordinator(k int) *coordinator {
	c := &coordinator{top: core.NewTopKBuffer(k)}
	c.kthBits.Store(math.Float64bits(noKth))
	return c
}

// merge folds a worker's current candidates into the global heap and
// refreshes the published kth grade.
func (c *coordinator) merge(items []core.Scored) {
	c.mu.Lock()
	for _, it := range items {
		c.top.Offer(it)
	}
	if c.top.Full() {
		c.kthBits.Store(math.Float64bits(float64(c.top.Kth())))
	}
	c.mu.Unlock()
}

// kth returns the published global kth grade (noKth while not full).
func (c *coordinator) kth() float64 {
	return math.Float64frombits(c.kthBits.Load())
}

// unmerged appends to dst the items of cur that last does not hold. Both
// are a worker's progress lists, in canonical (grade descending, ObjectID
// ascending) order with exact grades, so one walk over the two finds them.
// Merging only these is enough: an item of last was merged when last was
// reported, and the global heap keeps it or holds k better items forever.
func unmerged(dst, last, cur []core.Scored) []core.Scored {
	// Reports mostly repeat the last list, so skip the common prefix first.
	i := 0
	for i < len(cur) && i < len(last) && cur[i].Object == last[i].Object {
		i++
	}
	for _, it := range cur[i:] {
		for i < len(last) && (last[i].Grade > it.Grade || last[i].Grade == it.Grade && last[i].Object < it.Object) {
			i++
		}
		if i < len(last) && last[i].Object == it.Object {
			i++
			continue
		}
		dst = append(dst, it)
	}
	return dst
}

// QueryContext runs a top-k query across all shards concurrently and
// merges the per-shard answers into the exact global top k. The returned
// Result is canonical and identical for every shard count; Rounds is the
// deepest worker's round count. Cancelling ctx stops all workers at their
// next sorted access and returns ctx's error.
//
// Stats are the summed accounting of all shard workers: PerList sums align
// by attribute index, and MaxBuffered is the sum of every worker's peak
// plus the coordinator's own buffer (the k-item global top-k heap here; the
// peak number of view items in the NRA mode). Workers peak at different
// times, so the sum is an upper bound on — not necessarily equal to — the
// true peak of simultaneously retained objects; it is the number to compare
// against a sequential run's MaxBuffered in the buffer ablations, since it
// counts exactly the objects the whole engine was sized to hold.
func (e *Engine) QueryContext(ctx context.Context, t agg.Func, k int, opts Options) (*core.Result, error) {
	if err := core.ValidateQueryShape(e.m, e.n, t, k); err != nil {
		return nil, err
	}
	if err := ValidateOptions(opts); err != nil {
		return nil, err
	}
	if opts.NoRandomAccess {
		return e.queryNRA(ctx, t, k, opts)
	}
	return e.queryTA(ctx, t, k, opts)
}

// queryTA runs one TA worker per shard, in a single wave: a worker runs
// until its threshold falls below the global kth grade or its lists end,
// and is never resumed.
func (e *Engine) queryTA(ctx context.Context, t agg.Func, k int, opts Options) (*core.Result, error) {
	f := e.newFrame(ctx, t, k, opts, access.AllowAll)
	defer f.close()
	coord := newCoordinator(k)
	results := make([]*core.Result, len(e.shards))
	work := func(s int) error {
		var last, delta []core.Scored
		lastChanges := 0
		onProgress := func(pr core.Progress) bool {
			if f.cancelled() {
				return false
			}
			// Only what the worker has not merged before takes the lock.
			// A TopK that did not change since the last report holds
			// nothing new, so the walk is skipped.
			if pr.TopKChanges != lastChanges {
				lastChanges = pr.TopKChanges
				if delta = unmerged(delta[:0], last, pr.TopK); len(delta) > 0 {
					last = append(last[:0], pr.TopK...)
					coord.merge(delta)
				}
			}
			// Keep running while an unseen object could still reach
			// the answer: τ_s below the global kth grade means every
			// unseen object of this shard is strictly worse than k
			// known candidates; a tie at the kth grade keeps the
			// shard alive so the canonical (grade, ObjectID) order
			// is fully resolved. (In the cost-aware mode Threshold is
			// the worker's whole B-ceiling — unseen objects, partial
			// candidates and unpinned members alike — so the same
			// comparison covers everything the worker has not yet
			// published with an exact grade.)
			return !(float64(pr.Threshold) < coord.kth())
		}
		var al core.Algorithm
		if opts.CostAwareTA {
			al = &core.CostAwareTA{Costs: opts.Costs, OnProgress: onProgress}
		} else {
			al = &core.TA{StrictStop: true, OnProgress: onProgress, Batch: taBatchRounds}
		}
		// A worker whose backend died keeps whatever partial evidence it
		// salvaged: its items carry exact grades, so the fold below merges
		// them like any other. A worker lost to a panic leaves no result.
		res, err := al.Run(f.srcs[s], t, f.ks[s])
		results[s] = res
		return err
	}
	all := make([]int, len(e.shards))
	for s := range all {
		all[s] = s
	}
	if err := f.wave(all, work); err != nil {
		return nil, err
	}
	// Fold each worker's final answer into the global heap: progress
	// reports already delivered it, but the final fold keeps the merge
	// independent of report timing.
	rounds := 0
	for _, res := range results {
		if res != nil {
			coord.merge(res.Items)
			rounds = max(rounds, res.Rounds)
		}
	}
	// The global heap holds k items of its own on top of whatever the
	// workers buffered. Every grade in it is exact and everything a live
	// shard did not merge is bounded by the final kth grade (TA's
	// cancellation argument), so with shards lost the merged kth grade is
	// the θ floor.
	return f.finish(coord.top.Exact(), true, rounds, k, coord.kth)
}
