// Sharded NRA: the no-random-access mode of the engine (Section 8.1
// distributed). One resumable core.NRACursor runs per shard, performing
// sorted access only and maintaining [W, B] grade intervals; a coordinator
// merges every shard's published intervals into a global candidate table
// and decides, shard by shard, whether the shard's evidence can still
// change the global answer.
//
// The decision mirrors the paper's stopping rule, distributed. Let M_k be
// the k-th largest W in the global table. Shard s's B-ceiling is the
// largest upper bound any of its objects outside the global top-k could
// still have: the maximum of
//
//   - τ_s, the shard's unseen-object bound (B of any object never seen
//     there; dropped once the shard has seen or exhausted everything),
//   - the shard's largest B among viable seen objects outside its local
//     top-k, and
//   - the largest published B among the shard's table entries currently
//     outside the global top-k (candidates once published, later evicted
//     by other shards' W values rising).
//
// A shard whose ceiling is ≤ M_k is paused: none of its objects outside
// the global top-k — seen or unseen — can beat k known candidates, W only
// rises and B only falls, so the condition is permanent *unless* one of
// the shard's own table entries is later evicted from the global top-k
// with a B still above M_k. In that case the coordinator resumes the
// shard — pushing its cursor past its local halting point, the capability
// NRA.Run alone does not offer — until the global intervals separate at
// rank k. Global halt is exactly "every shard paused or exhausted", at
// which point the table's top k by W is a valid top-k object set: every
// member's grade is ≥ its W ≥ M_k, and everything else is ≤ its ceiling
// ≤ M_k.
//
// Two things keep the coordinator off the hot path. The candidate table is
// a core.OrderedCands — an incrementally maintained canonical order with
// O(log n) upserts, O(k) top-k extraction and lazily recomputed per-shard
// ceilings — instead of a table fully re-sorted under the mutex on every
// publish. And workers need not publish every round: the publish rule is
// derived from the shard count. With more than one shard a worker defers
// its publish until its local bounds actually cross the published global
// M_k, which it checks against an atomic without taking the coordinator
// lock, plus a safety valve every publishValveRounds rounds. Deferring never
// changes the answer — a worker can only overshoot in depth, never pause
// early, because pausing itself requires a publish and the coordinator's
// directive. A lone shard has no sibling whose evidence could move M_k, so
// it publishes only once its cursor halts, which preserves the exact
// sequential-NRA depth equivalence.
package shard

import (
	"context"
	"errors"
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

// nraCoordinator is the shared state behind one sharded NRA query. The
// candidate table and per-shard scalars are guarded by mu; the published
// global M_k is mirrored into an atomic so batching workers can poll it
// lock-free between publishes.
type nraCoordinator struct {
	mu sync.Mutex
	k  int

	tbl *core.OrderedCands

	ks        []int         // per-shard local k (min(k, shard size))
	threshold []model.Grade // per-shard τ_s, +Inf before the first publish
	outsideB  []model.Grade // per-shard max viable B outside the local top-k
	seenAll   []bool        // shard has seen every one of its objects
	exhausted []bool        // shard has consumed every list entirely
	dead      []bool        // shard lost permanently; never resumed again

	mkBits  atomic.Uint64 // Float64bits of the global k-th W, -Inf while table < k
	stopped atomic.Bool   // external cancellation or a worker error

	peak      int                     // peak table size — the coordinator's buffer accounting
	published map[model.ObjectID]bool // merge scratch, reused across publishes (under mu)
}

func newNRACoordinator(p, k int, ks []int) *nraCoordinator {
	c := &nraCoordinator{
		k:         k,
		tbl:       core.NewOrderedCands(k, p),
		ks:        ks,
		threshold: make([]model.Grade, p),
		outsideB:  make([]model.Grade, p),
		seenAll:   make([]bool, p),
		exhausted: make([]bool, p),
		dead:      make([]bool, p),
		published: make(map[model.ObjectID]bool, 2*k),
	}
	for s := 0; s < p; s++ {
		c.threshold[s] = model.Grade(math.Inf(1))
		c.outsideB[s] = model.Grade(math.Inf(1))
	}
	c.mkBits.Store(math.Float64bits(math.Inf(-1)))
	return c
}

// merge folds one shard's view into the table. Per-object W never falls and
// B never rises across publishes, so stale table rows stay sound bounds;
// rows the shard no longer ranks in its local top-k are capped at the
// shard-wide bound max(outsideB, local M_k), which every outside object's
// fresh B provably respects (drainTop retires at ≤ local M_k; survivors
// are ≤ outsideB). Must be called with mu held.
func (c *nraCoordinator) merge(s int, v core.CursorView) {
	clear(c.published)
	for _, it := range v.TopK {
		c.published[it.Object] = true
		c.tbl.Upsert(it.Object, s, it.Lower, it.Upper)
	}
	if n := c.tbl.Size(); n > c.peak {
		c.peak = n
	}
	localMk := model.Grade(math.Inf(-1))
	if len(v.TopK) == c.ks[s] && len(v.TopK) > 0 {
		localMk = v.TopK[len(v.TopK)-1].Lower
	}
	bound := v.OutsideB
	if localMk > bound {
		bound = localMk
	}
	c.tbl.CapShard(s, bound, c.published)
	if v.Threshold < c.threshold[s] {
		c.threshold[s] = v.Threshold
	}
	c.outsideB[s] = v.OutsideB
	c.seenAll[s] = c.seenAll[s] || v.SeenAll
	c.tbl.MaybePrune()
	c.mkBits.Store(math.Float64bits(float64(c.tbl.Mk())))
}

// ceiling recomputes shard s's B-ceiling from the per-shard scalars and the
// table's lazily maintained per-shard rows. Must be called with mu held.
func (c *nraCoordinator) ceiling(s int) model.Grade {
	ceil := model.Grade(math.Inf(-1))
	if !c.exhausted[s] && !c.seenAll[s] {
		ceil = c.threshold[s]
	}
	if c.outsideB[s] > ceil {
		ceil = c.outsideB[s]
	}
	if tc := c.tbl.ShardCeiling(s); tc > ceil {
		ceil = tc
	}
	return ceil
}

// publish folds shard s's view in and reports whether the shard should keep
// stepping: true while its B-ceiling still exceeds the global M_k. Only the
// publishing shard's ceiling is recomputed — the other shards' ceilings are
// refreshed lazily when the wave loop asks for the unresolved set.
func (c *nraCoordinator) publish(s int, v core.CursorView) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.merge(s, v)
	return c.ceiling(s) > c.tbl.Mk()
}

// globalMk returns the published global k-th W without taking the lock
// (-Inf while the table holds fewer than k entries).
func (c *nraCoordinator) globalMk() float64 {
	return math.Float64frombits(c.mkBits.Load())
}

// markExhausted records a shard that consumed every list (its intervals are
// all pinned; its final view was already published).
func (c *nraCoordinator) markExhausted(s int) {
	c.mu.Lock()
	c.exhausted[s] = true
	c.mu.Unlock()
}

// markDead records a shard lost permanently: the scheduler never resumes it
// again. Unlike markExhausted the shard's unseen-object bound τ_s stays in
// its ceiling — the shard did not finish, so its unseen objects still exist
// and are bounded only by what it last published.
func (c *nraCoordinator) markDead(s int) {
	c.mu.Lock()
	c.dead[s] = true
	c.mu.Unlock()
}

// finalize re-evaluates every dead shard's B-ceiling against the *final*
// table state and stores it in deg, returning the θ floor (the final global
// M_k). Death-time ceilings would be unsound: a dead shard's table row can
// be evicted from the global top-k later — by a surviving shard's W rising —
// with a frozen B above the ceiling at death. ShardCeiling over the final
// membership covers exactly those rows; τ_s and outside-B only ever fall, so
// their last published values remain valid bounds for everything the shard
// never published. Each ceiling is capped at maxG = t(1,…,1).
func (c *nraCoordinator) finalize(deg *degraded, maxG model.Grade) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, isDead := range c.dead {
		if !isDead {
			continue
		}
		ceil := c.ceiling(s)
		if ceil > maxG {
			ceil = maxG
		}
		deg.ceil[s] = ceil
	}
	return float64(c.tbl.Mk())
}

// unresolved returns the shards whose B-ceiling still exceeds M_k and that
// can still be stepped — the shards the coordinator must resume, typically
// because one of their candidates was evicted from the global top-k after
// they paused.
func (c *nraCoordinator) unresolved() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	mk := c.tbl.Mk()
	var out []int
	for s := range c.exhausted {
		if !c.exhausted[s] && !c.dead[s] && c.ceiling(s) > mk {
			out = append(out, s)
		}
	}
	return out
}

// pickCostAware returns the unresolved shard with the best bound-tightening
// value per unit of expected cost: argmax over shards of
// (ceiling − M_k) / stepCost, or -1 when every shard is resolved. A shard
// that has never published has ceiling +Inf, so the priorities of untouched
// shards tie at +Inf and resolve toward the cheapest backend — expensive
// shards run last, against an M_k their cheap siblings have already raised,
// and pause shallower than a concurrent wave would let them.
func (c *nraCoordinator) pickCostAware(stepCost []float64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	mk := float64(c.tbl.Mk())
	best := -1
	var bestPrio float64
	for s := range c.exhausted {
		if c.exhausted[s] || c.dead[s] {
			continue
		}
		ceil := float64(c.ceiling(s))
		if !(ceil > mk) {
			continue // resolved: nothing outside the global top-k can win
		}
		// ceil > mk rules out Inf−Inf, so prio is +Inf or finite, never NaN.
		prio := (ceil - mk) / stepCost[s]
		if best == -1 || prio > bestPrio || (prio == bestPrio && stepCost[s] < stepCost[best]) {
			best, bestPrio = s, prio
		}
	}
	return best
}

// topK returns the final global answer: the table's best k by
// (W descending, B descending, ObjectID ascending), with [Lower, Upper]
// carrying each survivor's final interval.
func (c *nraCoordinator) topK() (items []core.Scored, exact bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	items = c.tbl.AppendTopK(make([]core.Scored, 0, c.k))
	exact = true
	for _, it := range items {
		if it.Lower != it.Upper {
			exact = false
		}
	}
	return items, exact
}

// nraBatchRounds is the per-resume step budget of multi-shard wave workers:
// the cursor advances up to this many rounds per StepN call, so the publish
// predicate (and the coordinator's pause directive) is evaluated once per
// batch instead of once per round. Deferring a publish is always sound —
// the worker merely overshoots by at most the batch — and the safety valve
// (publishValveRounds) is a multiple of the batch, so the valve still fires
// exactly on time.
const nraBatchRounds = 16

// publishValveRounds bounds how long a multi-shard worker may go without
// publishing, so the coordinator's view of it never goes stale.
const publishValveRounds = 64

// shouldPublish is the multi-shard publish rule, evaluated after a step:
// publish when the worker's local evidence can change the global decision
// — its local k-th W rose above the published global M_k (it can raise the
// bar), or its local ceiling max(τ, outside-B) fell to M_k or below (it may
// be pausable) — or when the safety valve is due. since counts rounds since
// the last publish; gmk is the atomically published global M_k. Skipping a
// publish is always sound: pausing requires the coordinator's directive,
// which requires publishing, so an unpublished worker merely keeps scanning
// (bounded by the safety valve and, ultimately, exhaustion — which always
// publishes).
func shouldPublish(since int, cur *core.NRACursor, gmk float64) bool {
	if since >= publishValveRounds {
		return true
	}
	if float64(cur.LocalKthW()) > gmk {
		return true // local evidence can raise the global M_k
	}
	if cur.SeenAll() || float64(cur.Threshold()) <= gmk {
		// The unseen-object bound no longer exceeds M_k; if the outside-B
		// ceiling agrees the shard may be pausable, which only a publish
		// can decide.
		return float64(cur.OutsideB()) <= gmk
	}
	return false
}

// queryNRA answers a top-k query with one resumable NRA worker per shard —
// sorted access only, so Result.Stats.Random is always zero. The returned
// items carry [W, B] grade intervals like sequential NRA; GradesExact
// reports whether every answer interval happens to be pinned. Stats sum the
// per-worker accounting plus the coordinator's peak candidate-table size
// (the NRA-mode analogue of the TA coordinator's k-item heap), so sharded
// and sequential MaxBuffered are comparable.
func (e *Engine) queryNRA(ctx context.Context, t agg.Func, k int, opts Options) (*core.Result, error) {
	p := len(e.shards)
	sched := opts.Schedule
	if sched == ScheduleAuto {
		sched = ScheduleWave
	}
	ks := make([]int, p)
	srcs := make([]*access.Source, p)
	cursors := make([]*core.NRACursor, p)
	defer func() {
		for _, cur := range cursors {
			if cur != nil {
				cur.Release()
			}
		}
	}()
	stepCost := make([]float64, p)
	for s, db := range e.shards {
		ks[s] = k
		if n := db.N(); ks[s] > n {
			ks[s] = n // a shard smaller than k contributes all its objects
		}
		srcs[s] = e.source(s, access.Policy{NoRandom: true})
		srcs[s].BindContext(ctx)
		srcs[s].SetRetry(opts.Retry.Resolve())
		cur, err := core.NewNRACursor(srcs[s], t, ks[s], core.LazyEngine)
		if err != nil {
			return nil, err
		}
		cursors[s] = cur
		stepCost[s] = cur.StepCost()
	}
	coord := newNRACoordinator(p, k, ks)
	// Scheduling loop: run every pending shard until it pauses or
	// exhausts, then ask the scheduler which shards to resume. Cursors
	// persist across batches, so a resumed shard continues exactly where
	// it stopped — including past its local halting point. The wave
	// scheduler resumes every unresolved shard concurrently; the
	// cost-aware scheduler serializes, always resuming the shard whose
	// ceiling exceeds M_k the most per unit of expected per-round cost.
	// The adaptive scheduler additionally bounds each resume to a probe of
	// adaptiveProbeRounds rounds and replaces the declared step costs with
	// EWMA estimates from each probe's observed wall-clock, so its
	// priorities recover even when the declared costs lie.
	serialized := sched == ScheduleCostAware || sched == ScheduleAdaptive
	var est *costEstimator
	probe := 0
	if sched == ScheduleAdaptive {
		est = newCostEstimator(append([]float64(nil), stepCost...), ewmaAlpha)
		probe = adaptiveProbeRounds
	}
	deg := newDegraded(p)
	errs := make([]error, p)
	next := func() []int {
		if !serialized {
			return coord.unresolved()
		}
		if s := coord.pickCostAware(stepCost); s >= 0 {
			return []int{s}
		}
		return nil
	}
	var pending []int
	if serialized {
		pending = next()
	} else {
		pending = make([]int, p)
		for s := range pending {
			pending[s] = s
		}
	}
	// A lone shard steps singly and publishes only when its cursor halts
	// (or is exhausted, fails, or ends a probe): there is no sibling shard
	// whose evidence could change its pause depth, so the worker evaluates
	// the halting rule locally — the exact step-then-check loop of
	// core.NRA.Run. The coordinator's pause condition (B-ceiling ≤ M_k) is
	// implied by the halting rule at P = 1, so the scheduling loop still
	// terminates on the published view alone; depth and Stats match
	// sequential NRA access for access under every schedule. Multi-shard
	// wave workers step nraBatchRounds between publish-rule checks; the
	// serialized schedulers spend charged cost precisely — always the best
	// ceiling-drop per unit cost, pausing the moment the evidence says
	// so — and batch overshoot would erode exactly the margin they exist
	// to win, so they keep stepping singly.
	budget := 1
	if p > 1 && !serialized {
		budget = nraBatchRounds
	}
	ran := make([]bool, p)
	resumes := make([]int, p)
	elapsed := make([]time.Duration, p)
	for len(pending) > 0 {
		batch := pending
		for _, s := range batch {
			if ran[s] {
				resumes[s]++
			}
			ran[s] = true
		}
		weight := func(i int) float64 {
			// Estimated remaining work: rounds to full exhaustion at the
			// shard's declared per-round cost — the upper bound on how far
			// the coordinator may need to push the cursor.
			s := batch[i]
			rem := float64(e.shards[s].N() - cursors[s].Depth())
			if rem < 1 {
				rem = 1
			}
			return rem * stepCost[s]
		}
		stepped := make([]int, len(batch))
		took := make([]time.Duration, len(batch))
		ForEachWeighted(len(batch), opts.Workers, weight, func(i int) {
			s := batch[i]
			start := time.Now()
			depth0 := cursors[s].Depth()
			defer func() {
				took[i] = time.Since(start)
				elapsed[s] += took[i]
				stepped[i] = cursors[s].Depth() - depth0
			}()
			cur := cursors[s]
			// dieOrFail routes a shard failure: a backend lost past its
			// retry budget kills only this shard (the answer degrades to a
			// θ-approximation over the survivors), while anything else —
			// including ctx expiry mid-access — fails the whole query.
			dieOrFail := func(err error) {
				if errors.Is(err, access.ErrBackend) && ctx.Err() == nil {
					coord.markDead(s)
					deg.mark(s, 0, err)
					return
				}
				errs[s] = fmt.Errorf("shard: shard %d: %w", s, err)
				coord.stopped.Store(true)
			}
			defer func() {
				if r := recover(); r != nil {
					// The cursor's state is unknown, so nothing more is
					// published; the shard's last published view (or, before
					// any publish, the +Inf scalars capped at t(1,…,1))
					// still bounds everything it never merged.
					if e2, ok := r.(error); ok && errors.Is(e2, access.ErrBackend) {
						dieOrFail(e2)
						return
					}
					//lint:notbadquery a non-backend worker panic is an engine bug surfaced as an opaque error
					errs[s] = fmt.Errorf("shard: shard %d: worker panicked: %v", s, r)
					coord.stopped.Store(true)
				}
			}()
			since, rounds := 0, 0
			for {
				if coord.stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					coord.stopped.Store(true)
					return
				}
				b := budget
				if probe > 0 && b > probe-rounds {
					b = probe - rounds
				}
				got := cur.StepN(b)
				if got == 0 {
					// Exhausted or failed. A failed cursor keeps every
					// delivered prefix applied, so the final view is
					// consistent — publish it first; the tighter the last
					// published bounds, the better the certified θ.
					coord.publish(s, cur.View())
					if err := cur.Err(); err != nil {
						dieOrFail(err)
						return
					}
					coord.markExhausted(s)
					return
				}
				since += got
				rounds += got
				if probe > 0 && rounds >= probe {
					// Probe budget spent: publish (the scheduler decides on
					// coordinator state, never on a stale view) and yield.
					coord.publish(s, cur.View())
					return
				}
				if p == 1 {
					if !cur.Halted() {
						continue
					}
				} else if !shouldPublish(since, cur, coord.globalMk()) {
					continue
				}
				since = 0
				if !coord.publish(s, cur.View()) {
					return
				}
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if est != nil {
			// Observed serially after the pool joins: the estimator is not
			// safe for concurrent use.
			for i, s := range batch {
				est.Observe(s, stepped[i], took[i])
			}
			for s := range stepCost {
				stepCost[s] = est.Estimate(s)
			}
		}
		pending = next()
	}
	items, exact := coord.topK()
	stats := access.Stats{PerList: make([]int64, e.m)}
	rounds := 0
	var per []ShardStat
	if opts.OnShardStats != nil {
		per = make([]ShardStat, p)
	}
	for s := range srcs {
		st := srcs[s].Stats()
		addStats(&stats, st)
		if d := cursors[s].Depth(); d > rounds {
			rounds = d
		}
		if per != nil {
			per[s] = ShardStat{Stats: st, Elapsed: elapsed[s], Resumes: resumes[s], Dead: deg.dead[s]}
			if e.caches[s] != nil {
				per[s].Cache = e.caches[s].Stats()
			}
		}
		e.recycle(s, srcs[s])
	}
	stats.MaxBuffered += coord.peak
	res := &core.Result{
		Items:       items,
		GradesExact: exact,
		Theta:       1,
		Rounds:      rounds,
		Stats:       stats,
	}
	if deg.count > 0 {
		// Every answer's W is a valid lower bound, so the final global M_k
		// is the θ floor; each dead shard's ceiling is re-evaluated against
		// the final table state under the coordinator lock.
		floor := coord.finalize(deg, maxOverall(t, e.m))
		var err error
		if res, err = deg.degradeResult(res, opts, t, e.m, floor, p); err != nil {
			return nil, err
		}
	}
	if opts.OnShardStats != nil {
		opts.OnShardStats(per)
	}
	return res, nil
}
