package core

import (
	"repro/internal/access"
	"repro/internal/model"
)

// SchedView is the per-list state visible to a sorted-access scheduler.
// All slices have length m and are refreshed before every scheduling
// decision.
type SchedView struct {
	// Allowed[i] reports whether the policy permits sorted access on i.
	Allowed []bool
	// Exhausted[i] reports whether list i has been read to the bottom.
	Exhausted []bool
	// Depth[i] is the number of sorted accesses done on list i.
	Depth []int
	// Bottom[i] is the last grade seen under sorted access on list i
	// (1 before the first access, per the Section 7 convention).
	Bottom []model.Grade
	// PrevBottom[i] is the grade seen one access earlier (1 initially).
	PrevBottom []model.Grade
	// SinceAccess[i] counts scheduling steps since list i was accessed.
	SinceAccess []int
	// Costs[i] is the declared cost of one sorted access on list i
	// (Backend.AccessCosts; 1 for plain lists). Nil means unit costs —
	// cost-oblivious schedulers never read it.
	Costs []float64
}

// sortedCost returns list i's declared sorted-access cost (1 when the view
// carries no costs or the declared cost is non-positive).
func (v *SchedView) sortedCost(i int) float64 {
	if v.Costs == nil || v.Costs[i] <= 0 {
		return 1
	}
	return v.Costs[i]
}

// eligible reports whether list i can be accessed now.
func (v *SchedView) eligible(i int) bool { return v.Allowed[i] && !v.Exhausted[i] }

// newSchedView initializes a scheduling view over src: policy capabilities,
// the Section 7 convention x̄ᵢ = 1 before any sorted access, and each
// list's declared sorted-access cost.
func newSchedView(src *access.Source) *SchedView {
	m := src.M()
	v := &SchedView{
		Allowed:     make([]bool, m),
		Exhausted:   make([]bool, m),
		Depth:       make([]int, m),
		Bottom:      make([]model.Grade, m),
		PrevBottom:  make([]model.Grade, m),
		SinceAccess: make([]int, m),
		Costs:       make([]float64, m),
	}
	for i := 0; i < m; i++ {
		v.Allowed[i] = src.CanSorted(i)
		v.Bottom[i] = 1
		v.PrevBottom[i] = 1
		v.Costs[i] = src.AccessCost(i).CS
	}
	return v
}

// observe records one sorted access on list i that returned grade g — the
// per-entry half of the view update.
func (v *SchedView) observe(i int, g model.Grade) {
	v.PrevBottom[i] = v.Bottom[i]
	v.Bottom[i] = g
	v.Depth[i]++
}

// age closes one fetch group that read lists lo..hi-1 — the per-group half
// of the view update: those lists restart their SinceAccess count, every
// other list's grows by one scheduling step. For a group of one access
// this is exactly the per-access update.
func (v *SchedView) age(lo, hi int) {
	for i := range v.SinceAccess {
		v.SinceAccess[i]++
	}
	for i := lo; i < hi; i++ {
		v.SinceAccess[i] = 0
	}
}

// Scheduler chooses which sorted list TA accesses next. The paper's
// algorithms do "sorted access in parallel"; footnote 6 notes correctness
// and instance optimality survive any schedule whose per-list rates stay
// within constant multiples of each other. Lockstep realizes exact
// parallelism; Delta is the Quick-Combine-style heuristic from Section 10
// with the fairness bound that restores instance optimality.
type Scheduler interface {
	// Name identifies the schedule.
	Name() string
	// Next returns the list to access, or -1 when no eligible list
	// remains.
	Next(v *SchedView) int
}

// Lockstep accesses eligible lists round-robin (the list with the smallest
// depth, lowest index first), which is the paper's "in parallel" access.
type Lockstep struct{}

// Name implements Scheduler.
func (Lockstep) Name() string { return "lockstep" }

// Next implements Scheduler.
func (Lockstep) Next(v *SchedView) int {
	best := -1
	for i := range v.Depth {
		if !v.eligible(i) {
			continue
		}
		if best == -1 || v.Depth[i] < v.Depth[best] {
			best = i
		}
	}
	return best
}

// Delta is a Quick-Combine-style heuristic schedule (Güntzer, Balke,
// Kiessling, discussed in the paper's Section 10): it prefers the list whose
// grades are currently falling fastest per unit of declared sorted-access
// cost, which drives the threshold down sooner on skewed data and buys it
// where it is cheapest against heterogeneous backends (a cheap local index
// next to an expensive web subsystem) — the sorted-access half of the
// paper's CA argument that accesses should be spent at their exchange
// rate. A list's expected drop is its most recent observed descent
// (PrevBottom − Bottom); at unit costs the weighting changes nothing.
// Unmodified, the heuristic loses instance optimality (the paper gives a
// family of counterexamples); the Fairness bound implements the paper's
// fix — "each list is accessed under sorted access at least every u steps,
// for some constant u" — which restores it. Cost-aware TA allocates its
// sorted accesses with Delta{}.
type Delta struct {
	// Fairness is the paper's u: no eligible list goes more than u
	// scheduling steps without being accessed. Zero means u = 2m.
	Fairness int
}

// Name implements Scheduler.
func (d Delta) Name() string { return "delta" }

// Next implements Scheduler.
func (d Delta) Next(v *SchedView) int {
	u := d.Fairness
	if u <= 0 {
		u = 2 * len(v.Depth)
	}
	if starved := starvedList(v, u); starved != -1 {
		return starved
	}
	best := -1
	bestValue := -1.0
	for i := range v.Depth {
		if !v.eligible(i) {
			continue
		}
		drop := float64(v.PrevBottom[i] - v.Bottom[i])
		if v.Depth[i] == 0 {
			// Unread list: maximal optimism (grades live in [0,1], so 2
			// beats any observed descent) — every list gets probed before
			// the estimates decide.
			drop = 2
		}
		value := drop / v.sortedCost(i)
		better := best == -1 || value > bestValue
		if !better && value == bestValue {
			// Ties: the cheaper list first, then the shallower one, so
			// untouched lists get sampled early and equal descent rates
			// degrade to cheapest-first lockstep.
			better = v.sortedCost(i) < v.sortedCost(best) ||
				(v.sortedCost(i) == v.sortedCost(best) && v.Depth[i] < v.Depth[best])
		}
		if better {
			best = i
			bestValue = value
		}
	}
	return best
}

// starvedList returns the eligible list that has gone the longest without a
// sorted access once any has waited u or more scheduling steps, or -1. The
// heuristic schedulers serve it first — the paper's fairness fix ("each
// list is accessed at least every u steps"), which restores instance
// optimality for any heuristic preference.
func starvedList(v *SchedView, u int) int {
	starved := -1
	for i := range v.Depth {
		if v.eligible(i) && v.SinceAccess[i] >= u {
			if starved == -1 || v.SinceAccess[i] > v.SinceAccess[starved] {
				starved = i
			}
		}
	}
	return starved
}
