// Sharded NRA: the no-random-access mode of the engine (Section 8.1
// distributed). One resumable core.NRACursor runs per shard, performing
// sorted access only and maintaining [W, B] grade intervals; a coordinator
// keeps every shard's last published top-k, merges the views at rank k and
// decides, shard by shard, whether the shard's evidence can still change
// the global answer.
//
// The decision mirrors the paper's stopping rule, distributed. Let M_k be
// the k-th largest W over the merged views. Shard s's B-ceiling is the
// largest upper bound any of its objects outside the global top-k could
// still have: the maximum of
//
//   - τ_s, the shard's unseen-object bound (B of any object never seen
//     there; dropped once the shard has seen or exhausted everything),
//   - the shard's largest B among viable seen objects outside its local
//     top-k, and
//   - the largest B among the items of the shard's last view that the
//     merge leaves outside the global top-k.
//
// The last view is all the coordinator needs of a shard. Per object, W
// only rises and B only falls, so each view item's interval is the
// tightest the shard has published. An object that left the shard's local
// top-k has W at most the shard's local k-th W, which k of the shard's own
// view items reach, so it is at most the global M_k; its B is at most the
// shard's outside-B, or it was retired at B ≤ the local k-th W. A shard
// smaller than k keeps every object it has seen in its view.
//
// A shard whose ceiling is ≤ M_k is paused: none of its objects outside
// the global top-k — seen or unseen — can beat k known candidates, W only
// rises and B only falls, so the condition is permanent *unless* one of
// the shard's own view items is later pushed out of the global top-k with
// a B still above M_k. In that case the coordinator resumes the shard —
// pushing its cursor past its local halting point, the capability NRA.Run
// alone does not offer — until the global intervals separate at rank k.
// Global halt is exactly "every shard paused or exhausted", at which point
// the merged top k by W is a valid top-k object set: every member's grade
// is ≥ its W ≥ M_k, and everything else is ≤ its ceiling ≤ M_k.
//
// Two things keep the coordinator off the hot path. Its state is P
// reused buffers of at most k items each: a publish copies the shard's
// view into its buffer, restores the canonical order with an insertion
// sort (the view is nearly sorted), and re-merges the P sorted views at
// rank k — O(k·P) with no per-object index, and no allocation once the
// buffers are warm. And workers need not publish every round: the publish
// rule is derived from the shard count. With more than one shard a worker
// defers its publish until its local bounds actually cross the published
// global M_k, which it checks against an atomic without taking the
// coordinator lock, plus a safety valve every publishValveRounds rounds.
// Deferring never changes the answer — a worker can only overshoot in
// depth, never pause early, because pausing itself requires a publish and
// the coordinator's directive. A lone shard has no sibling whose evidence
// could move M_k, so it publishes only once its cursor halts, which
// preserves the exact sequential-NRA depth equivalence.
package shard

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
)

// nraCoordinator is the shared state behind one sharded NRA query. The
// per-shard views, the merged top-k and the per-shard scalars are guarded
// by mu; the published global M_k is mirrored into an atomic so batching
// workers can poll it lock-free between publishes.
type nraCoordinator struct {
	mu sync.Mutex
	k  int

	views [][]core.Scored // per-shard last published TopK, canonical order
	taken []int           // per-shard length of the view prefix in the global top-k
	top   []core.Scored   // the merged global top-k, canonical order

	threshold []model.Grade // per-shard τ_s, +Inf before the first publish
	outsideB  []model.Grade // per-shard max viable B outside the local top-k
	seenAll   []bool        // shard has seen every one of its objects
	exhausted []bool        // shard has consumed every list entirely

	// deg is the query's record of shards lost permanently, which are
	// never resumed again. Workers mark it during a wave; the coordinator
	// reads it only between waves and after the last, once the pool has
	// joined.
	deg *degraded

	mkBits atomic.Uint64 // Float64bits of the global k-th W, -Inf while the views hold < k items

	size, peak int // current and peak item count of the views — the coordinator's buffer accounting
}

// newNRACoordinator sizes one view buffer per shard at ks[s] = min(k, N_s)
// items, the most a shard's cursor ever reports.
func newNRACoordinator(k int, ks []int, deg *degraded) *nraCoordinator {
	p := len(ks)
	c := &nraCoordinator{
		k:         k,
		views:     make([][]core.Scored, p),
		taken:     make([]int, p),
		top:       make([]core.Scored, 0, k),
		threshold: make([]model.Grade, p),
		outsideB:  make([]model.Grade, p),
		seenAll:   make([]bool, p),
		exhausted: make([]bool, p),
		deg:       deg,
	}
	total := 0
	for _, n := range ks {
		total += n
	}
	buf := make([]core.Scored, total)
	for s := 0; s < p; s++ {
		c.views[s], buf = buf[:0:ks[s]], buf[ks[s]:]
		c.threshold[s] = model.Grade(math.Inf(1))
		c.outsideB[s] = model.Grade(math.Inf(1))
	}
	c.mkBits.Store(math.Float64bits(math.Inf(-1)))
	return c
}

// canonBefore reports whether a ranks strictly above b in the canonical NRA
// order: W descending, B descending, ObjectID ascending.
func canonBefore(a, b core.Scored) bool {
	if a.Lower != b.Lower {
		return a.Lower > b.Lower
	}
	if a.Upper != b.Upper {
		return a.Upper > b.Upper
	}
	return a.Object < b.Object
}

// merge replaces shard s's view with v and re-ranks the views. The cursor
// orders its top-k by W with cached B values, and View refreshes B without
// re-sorting W-ties, so the copy is insertion-sorted back into canonical
// order. Must be called with mu held.
func (c *nraCoordinator) merge(s int, v core.CursorView) {
	view := append(c.views[s][:0], v.TopK...)
	for i := 1; i < len(view); i++ {
		for j := i; j > 0 && canonBefore(view[j], view[j-1]); j-- {
			view[j], view[j-1] = view[j-1], view[j]
		}
	}
	c.size += len(view) - len(c.views[s])
	c.views[s] = view
	if c.size > c.peak {
		c.peak = c.size
	}
	if v.Threshold < c.threshold[s] {
		c.threshold[s] = v.Threshold
	}
	c.outsideB[s] = v.OutsideB
	c.seenAll[s] = c.seenAll[s] || v.SeenAll
	c.rank()
}

// rank merges the sorted views at rank k, repeatedly taking the best head
// among them, so the global top-k is a prefix of every view, and
// publishes the new M_k. Must be called with mu held.
func (c *nraCoordinator) rank() {
	clear(c.taken)
	c.top = c.top[:0]
	for len(c.top) < c.k {
		best := -1
		for s, view := range c.views {
			if c.taken[s] < len(view) && (best < 0 || canonBefore(view[c.taken[s]], c.views[best][c.taken[best]])) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		c.top = append(c.top, c.views[best][c.taken[best]])
		c.taken[best]++
	}
	c.mkBits.Store(math.Float64bits(float64(c.mk())))
}

// mk returns the global M_k, the k-th merged W, or -Inf while the views
// hold fewer than k items. Must be called with mu held.
func (c *nraCoordinator) mk() model.Grade {
	if len(c.top) < c.k {
		return model.Grade(math.Inf(-1))
	}
	return c.top[c.k-1].Lower
}

// ceiling computes shard s's B-ceiling from the per-shard scalars and the
// part of its view the merge leaves outside the global top-k. Must be
// called with mu held.
func (c *nraCoordinator) ceiling(s int) model.Grade {
	ceil := model.Grade(math.Inf(-1))
	if !c.exhausted[s] && !c.seenAll[s] {
		ceil = c.threshold[s]
	}
	if c.outsideB[s] > ceil {
		ceil = c.outsideB[s]
	}
	for _, it := range c.views[s][c.taken[s]:] {
		if it.Upper > ceil {
			ceil = it.Upper
		}
	}
	return ceil
}

// publish folds shard s's view in and reports whether the shard should keep
// stepping: true while its B-ceiling still exceeds the global M_k. Every
// shard's ceiling reads the merge this publish made, so the wave loop's
// unresolved set is current without refreshing anything.
func (c *nraCoordinator) publish(s int, v core.CursorView) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.merge(s, v)
	return c.ceiling(s) > c.mk()
}

// globalMk returns the published global k-th W without taking the lock
// (-Inf while the views hold fewer than k items).
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

// finalize evaluates every dead shard's B-ceiling against the *final*
// merge and stores it in the lost-shard record, returning the θ floor (the
// final global M_k). Death-time ceilings would be unsound: a dead shard's
// view item can be pushed out of the global top-k later — by a surviving
// shard's W rising — with a frozen B above the ceiling at death. The final
// merge covers exactly those items; τ_s and outside-B only ever fall, so
// their last published values remain valid bounds for everything the shard
// never published. Unlike an exhausted shard's, a dead shard's τ_s stays
// in its ceiling: its unseen objects still exist. Each ceiling is capped
// at maxG = t(1,…,1).
func (c *nraCoordinator) finalize(maxG model.Grade) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, isDead := range c.deg.dead {
		if isDead {
			c.deg.ceil[s] = min(c.ceiling(s), maxG)
		}
	}
	return float64(c.mk())
}

// schedule returns the next wave: the shards whose B-ceiling still exceeds
// M_k and that can still be stepped — typically because one of their view
// items was pushed out of the global top-k after they paused. A serialized
// schedule runs only the one among them with the best bound-tightening
// value per unit of expected cost, argmax of (ceiling − M_k) / stepCost. A
// shard that has never published has ceiling +Inf, so the priorities of
// untouched shards tie at +Inf and resolve toward the cheapest backend —
// expensive shards run last, against an M_k their cheap siblings have
// already raised, and pause shallower than a concurrent wave would let
// them. An empty wave ends the query.
func (c *nraCoordinator) schedule(stepCost []float64, serialized bool) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	mk := float64(c.mk())
	var wave []int
	best, bestPrio := -1, 0.0
	for s := range c.exhausted {
		if c.exhausted[s] || c.deg.dead[s] {
			continue
		}
		ceil := float64(c.ceiling(s))
		if !(ceil > mk) {
			continue // resolved: nothing outside the global top-k can win
		}
		if !serialized {
			wave = append(wave, s)
			continue
		}
		// ceil > mk rules out Inf−Inf, so prio is +Inf or finite, never NaN.
		prio := (ceil - mk) / stepCost[s]
		if best == -1 || prio > bestPrio || (prio == bestPrio && stepCost[s] < stepCost[best]) {
			best, bestPrio = s, prio
		}
	}
	if best >= 0 {
		wave = append(wave, best)
	}
	return wave
}

// topK returns the final global answer: the merged best k by
// (W descending, B descending, ObjectID ascending), with [Lower, Upper]
// carrying each survivor's final interval.
func (c *nraCoordinator) topK() (items []core.Scored, exact bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	items = append([]core.Scored(nil), c.top...)
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
// per-worker accounting plus the coordinator's peak number of view items
// (at most Σ_s min(k, N_s); the NRA-mode analogue of the TA coordinator's
// k-item heap), so sharded and sequential MaxBuffered are comparable.
func (e *Engine) queryNRA(ctx context.Context, t agg.Func, k int, opts Options) (*core.Result, error) {
	p := len(e.shards)
	sched := opts.Schedule
	if sched == ScheduleAuto {
		sched = ScheduleWave
	}
	f := e.newFrame(ctx, t, k, opts, access.Policy{NoRandom: true})
	defer f.close()
	cursors := make([]*core.NRACursor, p)
	defer func() {
		for _, cur := range cursors {
			if cur != nil {
				cur.Release()
			}
		}
	}()
	stepCost := make([]float64, p)
	for s := range cursors {
		cur, err := core.NewNRACursor(f.srcs[s], t, f.ks[s], core.LazyEngine)
		if err != nil {
			return nil, err
		}
		cursors[s] = cur
		stepCost[s] = cur.StepCost()
	}
	coord := newNRACoordinator(k, f.ks, f.deg)
	// Scheduling loop: run every pending shard until it pauses or
	// exhausts, then ask the scheduler which shards to resume. Cursors
	// persist across waves, so a resumed shard continues exactly where
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
	// step drives shard s's cursor until the coordinator pauses it, it
	// exhausts or fails, or its probe budget runs out. After a panic the
	// cursor's state is unknown, so nothing more is published; the shard's
	// last published view (or, before any publish, the +Inf scalars capped
	// at t(1,…,1)) still bounds everything it never merged.
	step := func(s int) error {
		cur := cursors[s]
		since, rounds := 0, 0
		for {
			if f.cancelled() {
				return nil
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
					return err
				}
				coord.markExhausted(s)
				return nil
			}
			since += got
			rounds += got
			if probe > 0 && rounds >= probe {
				// Probe budget spent: publish (the scheduler decides on
				// coordinator state, never on a stale view) and yield.
				coord.publish(s, cur.View())
				return nil
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
				return nil
			}
		}
	}
	// Every shard starts unresolved (its ceiling is +Inf), so the first
	// wave runs them all, or the serialized schedules' first pick.
	for pending := coord.schedule(stepCost, serialized); len(pending) > 0; {
		// The adaptive schedule runs one shard per wave, its pick.
		s := pending[0]
		depth0, took0 := cursors[s].Depth(), f.elapsed[s]
		if err := f.wave(pending, step); err != nil {
			return nil, err
		}
		if est != nil {
			// Observed between waves: the estimator is not safe for
			// concurrent use.
			est.Observe(s, cursors[s].Depth()-depth0, f.elapsed[s]-took0)
			for i := range stepCost {
				stepCost[i] = est.Estimate(i)
			}
		}
		pending = coord.schedule(stepCost, serialized)
	}
	items, exact := coord.topK()
	rounds := 0
	for _, cur := range cursors {
		rounds = max(rounds, cur.Depth())
	}
	// Every answer's W is a valid lower bound, so with shards lost the
	// final global M_k is the θ floor; finalize evaluates each dead
	// shard's ceiling against the final merge under the coordinator lock.
	floor := func() float64 { return coord.finalize(agg.TopValue(t)) }
	return f.finish(items, exact, rounds, coord.peak, floor)
}
