package core

import (
	"math"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// CostAwareTA is the cost-adaptive threshold algorithm: TA's contract —
// exact grades for the top k — bought at CA's exchange rate. Plain TA
// resolves every object it encounters under sorted access immediately, by
// m−1 random accesses, which is exactly the behavior that loses instance
// optimality's practical edge when cR ≫ cS (the reason Section 8.2
// introduces CA). CostAwareTA instead:
//
//   - allocates sorted accesses with Delta, deepening the list whose
//     next access buys the largest expected threshold drop per unit of
//     declared charged cost (cheap lists first on heterogeneous backends);
//   - spends random access at the paper's CA cadence — one resolution
//     phase (the seen, viable object with the largest B gets its missing
//     fields resolved) every h ≈ cR/cS sorted-access rounds, h derived
//     from the backends' declared cost models;
//   - maintains NRA's [W, B] bound bookkeeping in between, so halting
//     needs no per-object resolution at all;
//   - and, once the stopping rule fires, pins the answer exactly: every
//     top-k member whose grade is not yet exact (W < B) is resolved by
//     random access (at most k·(m−1) accesses, none for a member whose
//     fresh B already equals W), so GradesExact is always true.
//
// The answer therefore carries exact grades like TA's while the charged
// middleware cost tracks CA's. Ties at the k-th grade are broken
// arbitrarily (as the paper allows), so answers agree with TA's as grade
// multisets, not necessarily as object sets.
type CostAwareTA struct {
	// Costs supplies the cS/cR used to derive the phase period h when the
	// source's backends declare nothing (plain unit-cost lists). When the
	// lists declare real cost models (access.Backend), the declared
	// per-list costs win and Costs is ignored.
	Costs access.CostModel
	// H, when positive, overrides the derived phase period (in
	// sorted-access rounds, like CA's h).
	H int
	// OnProgress, when non-nil, is invoked once per sorted-access round
	// (every m sorted accesses, wherever the planner spent them). Unlike
	// TA's hook, TopK carries only the top-k members whose grades are
	// already exact — every field known, or B refreshed onto W — in
	// canonical (grade descending, ObjectID ascending) order, and
	// Threshold carries the run's B-ceiling: the largest possible grade of
	// any object not in TopK — unseen, partially seen, or a top-k member
	// not yet pinned. A report costs what changed since the last one: a
	// member with every field known is never refreshed again, and the
	// other members are read one best per known-field set, so a member
	// whose B collapses onto W before every field is known (possible under
	// min or max, not under avg or sum over positive grades) may join TopK
	// a few reports late; until then the ceiling covers it. Returning false
	// stops the run with the pinned candidates; the sharded engine cancels
	// workers through this hook once their ceiling falls below the global
	// k-th grade.
	OnProgress func(Progress) bool
}

// Name implements Algorithm.
func (a *CostAwareTA) Name() string { return "TA-cost-aware" }

// phasePeriod resolves h, the number of sorted-access rounds between
// random-access phases: the explicit override, or ⌊cR/cS⌋ from the mean
// declared per-list backend costs, falling back to the configured (then
// unit) cost model.
func (a *CostAwareTA) phasePeriod(src *access.Source) int {
	if a.H > 0 {
		return a.H
	}
	var cs, cr float64
	for i := 0; i < src.M(); i++ {
		cm := src.AccessCost(i)
		cs += cm.CS
		cr += cm.CR
	}
	m := float64(src.M())
	declared := access.CostModel{CS: cs / m, CR: cr / m}
	if declared != access.UnitCosts && declared.CS > 0 {
		return declared.H()
	}
	c := a.Costs
	if c.CS <= 0 {
		c = access.UnitCosts
	}
	return c.H()
}

// ceiling returns the largest possible overall grade of any object whose
// exact grade is not yet known: the unseen-object threshold τ (while
// unseen objects remain), the largest fresh B among unpinned top-k members
// (openTop, which pins the group bests it finds collapsed onto W), and the
// largest fresh B among viable candidates outside the top-k (drainTop).
// Computing it retires non-viable candidates, which is sound (B only
// falls, M_k only rises).
func (a *CostAwareTA) ceiling(tb *table) model.Grade {
	ceil := model.Grade(math.Inf(-1))
	if tb.seen < tb.src.N() {
		ceil = tb.threshold()
	}
	if p := tb.openTop(); p != nil && p.b > ceil {
		ceil = p.b
	}
	if c := tb.drainTop(tb.mk()); c != nil && c.b > ceil {
		ceil = c.b
	}
	return ceil
}

// Run implements Algorithm.
func (a *CostAwareTA) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "cost-aware TA", true); err != nil {
		return nil, err
	}
	m := src.M()
	h := a.phasePeriod(src)
	view := newSchedView(src)
	tb := newTable(src, t, k, true)
	tb.trackPins = true
	defer tb.release()
	// One phase every h rounds; the planner allocates accesses unevenly, so
	// a "round" is m sorted accesses wherever they were spent.
	period := h * m
	sincePhase := 0
	sinceProgress := 0
	// pinBuf is the reported copy of the pinned list, refreshed only when
	// the list changed (pinGen trails tb.pins.changes).
	var pinBuf []Scored
	pinGen := 0
	for {
		i := Delta{}.Next(view)
		if i == -1 {
			// Every list exhausted: all grades are known, every bound is
			// pinned, and the top-k is exact as it stands.
			return a.finish(tb, view)
		}
		e, ok, err := src.SortedNext(i)
		if err != nil {
			return a.die(tb, view, err)
		}
		view.Exhausted[i] = !ok || src.Exhausted(i)
		if !ok {
			continue
		}
		view.age(i, i+1)
		view.observe(i, e.Grade)
		tb.observeSorted(i, e)
		src.ReportBuffer(tb.seen)

		sincePhase++
		if sincePhase >= period {
			sincePhase = 0
			if err := tb.randomPhase(); err != nil {
				return a.die(tb, view, err)
			}
		}
		sinceProgress++
		if a.OnProgress != nil && sinceProgress >= m {
			sinceProgress = 0
			// The ceiling first: it may pin members, and whatever it
			// leaves out of its maximum must be in TopK.
			ceil := a.ceiling(tb)
			if pinGen != tb.pins.changes {
				pinGen = tb.pins.changes
				pinBuf = tb.pins.AppendSnapshot(pinBuf[:0])
			}
			if invariantsEnabled {
				tb.checkReport(pinBuf, ceil)
			}
			p := Progress{
				TopK:        pinBuf,
				Threshold:   ceil,
				Guarantee:   math.Inf(1),
				Depth:       maxInt(view.Depth),
				TopKChanges: tb.pins.changes,
			}
			p.Sorted, p.Random = src.Counts()
			if len(pinBuf) == k && pinBuf[k-1].Grade > 0 {
				p.Guarantee = math.Max(1, float64(ceil)/float64(pinBuf[k-1].Grade))
			}
			if !a.OnProgress(p) {
				return a.stopEarly(tb, view, p.Guarantee), nil
			}
		}
		if tb.halted() {
			return a.finish(tb, view)
		}
	}
}

// die assembles the degraded hand-off of a run killed by a backend failure:
// the pinned candidates (exact grades, directly mergeable by the sharded
// coordinator) plus an AccessError whose ceiling bounds the overall grade
// of everything the run does not return — the unseen threshold, every
// unpinned or outside candidate's B, and (via M_k, which only ever rose)
// every candidate retired along the way.
func (a *CostAwareTA) die(tb *table, view *SchedView, err error) (*Result, error) {
	ceil := a.ceiling(tb)
	if mk := tb.mk(); mk > ceil {
		ceil = mk
	}
	return a.stopEarly(tb, view, math.Inf(1)), &AccessError{Ceiling: ceil, Err: err}
}

// finish pins the answer: every top-k member whose fresh B still exceeds
// its W is resolved by random access. A member with missing fields whose
// fresh B equals W is skipped: W = B bounds its grade from both sides, so
// it is already exact. Sound because the stopping rule already proved no
// outside object viable — resolution only raises member W values (and
// therefore M_k), so the member set cannot change. A backend failure
// during pinning degrades like a mid-run death: the members already pinned
// are returned with the death ceiling.
func (a *CostAwareTA) finish(tb *table, view *SchedView) (*Result, error) {
	// Each resolution re-sorts the member list, so scan afresh until every
	// member is exact (≤ k resolutions: each pins one object). Random
	// accesses move no bottom, so a refreshed B stays fresh.
	for {
		var target *partial
		for _, p := range tb.topk {
			if p.fields() == tb.m {
				continue
			}
			if tb.refreshB(p); p.w < p.b {
				target = p
				break
			}
		}
		if target == nil {
			break
		}
		if err := tb.resolveAll(target); err != nil {
			return a.die(tb, view, err)
		}
	}
	// Every member is pinned now, and the pinned list is the answer.
	return a.stopEarly(tb, view, 1), nil
}

// stopEarly assembles a result from the pinned list: the candidates whose
// exact grades are already known — every member after finish, possibly
// fewer than k in a cancelled run. The sharded engine relies on this — a
// cancelled worker's items must all carry exact grades, because the
// coordinator merges them into an exact global heap.
func (a *CostAwareTA) stopEarly(tb *table, view *SchedView, guarantee float64) *Result {
	// Refreshing every unpinned member pins the ones whose B collapsed onto
	// W below their group's best.
	for _, p := range tb.topk {
		if !p.pinned {
			tb.refreshB(p)
		}
	}
	items := tb.pins.AppendSnapshot(nil)
	return &Result{
		Items:       items,
		GradesExact: true,
		Theta:       guarantee,
		Rounds:      maxInt(view.Depth),
		Stats:       tb.src.Stats(),
	}
}

// checkReport is the invariants build's audit of one progress report:
// every reported item is a pinned member whose fresh B equals its W and
// its grade, every group-heap slot holds its member's keys (the current B
// under the lazy discipline, 0 under the static one), and the ceiling
// equals a brute-force recomputation — τ while unseen objects remain, the
// fresh B of every unpinned member, and the fresh B of every candidate, in
// a group or a FIFO, still viable against M_k — that touches no cached
// bound and counts no recompute.
func (tb *table) checkReport(items []Scored, ceil model.Grade) {
	fresh := func(p *partial) model.Grade { return tb.apply(p.known, p.grades, tb.bottoms) }
	for _, it := range items {
		p, _ := tb.get(it.Object)
		if !(p != nil && p.inTopK && p.pinned) {
			invariantViolated("reported object %d is not a pinned top-k member", it.Object)
		}
		if b := fresh(p); !(p.w == b && it.Grade == p.w) {
			invariantViolated("reported object %d at %v has W=%v, fresh B=%v", it.Object, it.Grade, p.w, b)
		}
	}
	want := model.Grade(math.Inf(-1))
	if tb.seen < tb.src.N() {
		want = tb.t.Apply(tb.bottoms)
	}
	for _, p := range tb.topk {
		if b := fresh(p); !p.pinned && b > want {
			want = b
		}
	}
	mk := tb.mk()
	for g := range tb.groups {
		gr := &tb.groups[g]
		for _, h := range []groupHeap{gr.open, gr.cands} {
			for i, s := range h {
				p := s.p
				b := p.b
				if tb.static {
					b = 0
				}
				if !(p.grp == int32(g) && p.known == gr.mask && p.heapIdx == i && s.b == b && s.key == p.key && s.seq == p.seq) {
					invariantViolated("group %d slot %d of object %d (group %d, index %d) holds B=%v K=%v, member has %v and %v", g, i, p.obj, p.grp, p.heapIdx, s.b, s.key, p.b, p.key)
				}
			}
		}
		for _, s := range gr.open {
			if !(s.p.inTopK && !s.p.pinned) {
				invariantViolated("open slot of object %d holds no open member", s.p.obj)
			}
		}
		for _, s := range gr.cands {
			if s.p.retired || s.p.inTopK {
				invariantViolated("candidate slot of object %d holds a retired object or a member", s.p.obj)
			}
			if b := fresh(s.p); b > mk && b > want {
				want = b
			}
		}
	}
	for _, f := range tb.fifos {
		for _, p := range f.q[f.head:] {
			if b := fresh(p); p.queued && b > mk && b > want {
				want = b
			}
		}
	}
	if ceil != want {
		invariantViolated("progress ceiling %v, brute-force recomputation %v", ceil, want)
	}
}
