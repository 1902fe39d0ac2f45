package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/agg"
)

// CA is the combined algorithm (Section 8.2): NRA's sorted-access loop and
// bound bookkeeping, plus one random-access phase every h = ⌊cR/cS⌋ depths.
// Each phase picks the seen, viable object with missing fields whose B
// value is largest and resolves all of its missing fields by random access;
// if no such object exists the phase is skipped (footnote 15's escape
// clause, which keeps CA free of wild guesses). CA is instance optimal
// with optimality ratio independent of cR/cS when t is strictly monotone
// in each argument and grades are distinct (Theorem 8.9), and for min
// (Theorem 8.10).
type CA struct {
	// Costs supplies cS and cR; h is derived as ⌊cR/cS⌋ (≥ 1). The
	// paper assumes cR ≥ cS in this setting.
	Costs access.CostModel
	// H, when positive, overrides the derived phase period (used by
	// experiments that sweep h directly).
	H int
}

// Name implements Algorithm.
func (a *CA) Name() string { return "CA" }

// resolveH returns the active phase period of CA and Intermittent: the
// explicit override h when positive, otherwise ⌊cR/cS⌋ (≥ 1) from costs,
// with zero costs meaning unit costs.
func resolveH(h int, costs access.CostModel) int {
	if h > 0 {
		return h
	}
	if costs.CS == 0 && costs.CR == 0 {
		costs = access.UnitCosts
	}
	return costs.H()
}

// Run implements Algorithm.
func (a *CA) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "CA", true); err != nil {
		return nil, err
	}
	h := resolveH(a.H, a.Costs)
	c := newNRACursor(src, t, k, LazyEngine)
	defer c.Release()
	for {
		if c.StepN(1) == 0 {
			if err := c.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: CA exhausted all lists without satisfying the stopping rule")
		}
		if c.Depth()%h == 0 {
			if err := c.randomPhase(); err != nil {
				return nil, err
			}
		}
		if c.Halted() {
			return c.Result(), nil
		}
	}
}

// pickPhaseTarget returns the seen, viable object with missing fields whose
// fresh B is largest, considering both T_k members and outside candidates.
// Under pin tracking (cost-aware TA) the members considered are the open
// ones, read one best per group: a pinned member's grade is already exact.
// CA tracks no pins and walks every member with missing fields.
func (tb *table) pickPhaseTarget() *partial {
	mk := tb.mk()
	var best *partial
	if tb.trackPins {
		best = tb.openTop()
	} else {
		for _, p := range tb.topk {
			if p.fields() == tb.m {
				continue
			}
			tb.refreshB(p)
			// A T_k member is worth resolving while its value is not yet
			// pinned; when B has collapsed onto W (= M_k for the k-th)
			// nothing can change, matching the paper's viability cut.
			if p.b <= mk && p.b == p.w {
				continue
			}
			if best == nil || p.b > best.b {
				best = p
			}
		}
	}
	if c := tb.drainTop(mk); c != nil {
		if c.fields() < tb.m && (best == nil || c.b > best.b) {
			best = c
		}
	}
	return best
}
