package core

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
)

// Engine selects NRA's bound-bookkeeping strategy (Remark 8.7 raises the
// bookkeeping cost as an open engineering question; we implement both the
// straightforward scheme and a lazy one and measure them against each
// other).
type Engine int

const (
	// LazyEngine caches B values and refreshes them only on demand,
	// retiring candidates that become non-viable. Default.
	LazyEngine Engine = iota
	// RescanEngine recomputes every seen object's B at every depth —
	// the paper's Ω(d²m) straightforward bookkeeping.
	RescanEngine
)

// String returns the engine's name.
func (e Engine) String() string {
	if e == RescanEngine {
		return "rescan"
	}
	return "lazy"
}

// NRA is the no-random-access algorithm (Section 8.1). It performs sorted
// access in parallel, maintains lower/upper bounds W and B for every seen
// object, and halts when the current top-k list T_k cannot be improved:
// no object outside T_k (seen or unseen) has B above the k-th largest W.
// Its output is the top k *objects*; their exact grades may be unknown
// (Result.GradesExact reports whether they happen to be pinned, and each
// item carries its final [W, B] interval).
type NRA struct {
	// Engine selects the bookkeeping strategy; both produce a correct
	// top-k, differing only in internal recomputation effort.
	Engine Engine
	// OnProgress, when non-nil, is invoked after every sorted-access
	// round with the current view (TopK carries the current T_k with
	// [W, B] intervals, Threshold the best possible grade of an unseen
	// object); returning false stops the run early with the current
	// view. This is the same cancellable run hook TA exposes, so batch
	// and sharded execution can stop NRA workers mid-run.
	OnProgress func(Progress) bool
}

// Name implements Algorithm.
func (a *NRA) Name() string { return "NRA" }

// Run implements Algorithm. It is a thin loop over NRACursor: step, check
// the stopping rule, fire the progress hook. Callers that need to push a
// run past its halting point (the sharded no-random-access engine) hold a
// cursor directly instead.
func (a *NRA) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	c, err := NewNRACursor(src, t, k, a.Engine)
	if err != nil {
		return nil, err
	}
	defer c.Release()
	for {
		if c.StepN(1) == 0 {
			if err := c.Err(); err != nil {
				return nil, err
			}
			// All lists exhausted: every grade of every object is
			// known, so T_k is exact and halted() must have fired;
			// this guards against infinite loops on malformed
			// inputs.
			return nil, fmt.Errorf("core: NRA exhausted all lists without satisfying the stopping rule")
		}
		if c.Halted() {
			return c.Result(), nil
		}
		if a.OnProgress != nil {
			res := c.Result()
			// The view is not yet certified: halting has not fired, so
			// a stopped run carries no approximation guarantee.
			res.Theta = math.Inf(1)
			sorted, random := src.Counts()
			if !a.OnProgress(Progress{
				TopK:        res.Items,
				Threshold:   c.Threshold(),
				Guarantee:   res.Theta,
				Depth:       c.Depth(),
				Sorted:      sorted,
				Random:      random,
				TopKChanges: c.Depth(),
			}) {
				return res, nil
			}
		}
	}
}
