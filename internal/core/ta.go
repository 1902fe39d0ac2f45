package core

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// Progress is the early-stopping view handed to TA's Progress callback
// after every sorted access (Section 6.2's interactive process). TopK is
// the current top-k list, Threshold the current τ, and Guarantee the
// current θ = τ/β certifying the view as a θ-approximation (math.Inf(1)
// until k objects with positive grades are held; 1 when the view is already
// provably exact).
//
// TopK may be backed by a buffer the run reuses for its next callback (TA
// and cost-aware TA reuse one): read or copy it inside the callback, do not
// retain it.
type Progress struct {
	TopK      []Scored
	Threshold model.Grade
	Guarantee float64
	Depth     int
	Sorted    int64
	Random    int64
	// TopKChanges counts the changes to TopK since the run began: two
	// reports of one run with equal counts carry equal TopK lists, so a
	// consumer that took in the earlier one can skip the later. The count
	// never falls, and it may move without a visible change (NRA's moves
	// every round, as its intervals do).
	TopKChanges int
}

// TA is the threshold algorithm (Section 4), including its TAθ
// approximation variant (Section 6.2; set Theta > 1) and, when run against
// a Source whose policy restricts sorted access to a subset Z, the TAz
// variant of Section 7 (lists outside Z contribute x̄ᵢ = 1 to the
// threshold).
//
// By default TA is faithful to the paper: it keeps only the current top-k
// list and the per-list cursor positions (Theorem 4.2's bounded buffer),
// and therefore re-does random accesses when an object is encountered under
// sorted access a second time (footnote 7). Set Memoize to trade the
// bounded buffer for fewer random accesses (the ablation measured in the
// experiments).
type TA struct {
	// Theta is the approximation parameter θ ≥ 1. Zero means 1 (exact).
	Theta float64
	// Memoize remembers every object's computed overall grade, skipping
	// repeat random accesses at the price of an unbounded buffer.
	Memoize bool
	// Sched selects the sorted-access order; nil means Lockstep.
	Sched Scheduler
	// OnProgress, when non-nil, is invoked after every sorted access
	// with the current view; returning false stops the run early with
	// the current view and its guarantee (Section 6.2's early
	// stopping). It is also the cancellation hook the sharded engine
	// uses to stop a shard's worker once its threshold can no longer
	// affect the global answer.
	OnProgress func(Progress) bool
	// StrictStop tightens the stopping rule from "kth grade ≥ τ" to
	// "kth grade > τ", so the run cannot halt while an unseen object
	// could still tie the kth grade. The paper breaks ties arbitrarily,
	// so stock TA may return either tied object; with StrictStop the
	// answer is canonical — the top k by (grade descending, ObjectID
	// ascending) — which is what the sharded engine needs for
	// shard-count-independent results. Incompatible with Theta > 1.
	StrictStop bool
	// Batch, when > 1, prefetches up to Batch sorted rounds per list in one
	// batched access and processes the entries in the exact lockstep
	// (round, list) order, with the threshold and stopping rule still
	// evaluated after every entry — the run stops on the same access a
	// single-step run would, and the answer is identical. What changes is
	// overhead, not semantics: one Source call, one OnProgress invocation
	// and one buffer report per batch instead of per access, and up to
	// Batch-1 prefetched-but-unprocessed accesses charged to Stats when the
	// run stops mid-batch. Requires the default lockstep schedule (Sched
	// must be nil); sources whose policy restricts sorted access read one
	// entry at a time.
	Batch int
}

// Name implements Algorithm.
func (a *TA) Name() string {
	if a.Theta > 1 {
		return fmt.Sprintf("TA(θ=%g)", a.Theta)
	}
	return "TA"
}

// Run implements Algorithm.
func (a *TA) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validate(src, t, k); err != nil {
		return nil, err
	}
	theta := a.Theta
	if theta == 0 {
		theta = 1
	}
	if theta < 1 {
		return nil, fmt.Errorf("%w: θ must be at least 1, got %g", ErrBadQuery, theta)
	}
	if a.StrictStop && theta > 1 {
		return nil, fmt.Errorf("%w: StrictStop requires an exact run (θ = 1), got θ = %g", ErrBadQuery, theta)
	}
	m := src.M()
	anySorted := false
	for i := 0; i < m; i++ {
		if src.CanSorted(i) {
			anySorted = true
		} else if !src.CanRandom(i) {
			return nil, fmt.Errorf("%w: list %d allows neither sorted nor random access", ErrBadQuery, i)
		}
	}
	if !anySorted {
		return nil, fmt.Errorf("%w: TA needs sorted access to at least one list (Z nonempty)", ErrBadQuery)
	}
	if m > 1 && !src.CanRandom(0) {
		return nil, fmt.Errorf("%w: TA needs random access; use NRA when random access is impossible", ErrBadQuery)
	}
	// The run reads in fetch groups: the single list the scheduler picks,
	// or — with Batch — Batch lockstep rounds from every list in one
	// batched access per list. Entries are processed in (round, list)
	// order with the threshold and stopping rule evaluated after every
	// entry, so a group of any size stops on the same access a single-step
	// run would. The buffer report and OnProgress fire once per group,
	// after its last entry and before that entry's stop check; a stop
	// mid-group discards the remaining prefetched entries, which is sound
	// (each sits at or below its list's current bottom, so its overall
	// grade is at most τ, which the stop rule just bounded by the kth
	// grade) and visible only as up to Batch-1 extra charged sorted
	// accesses per list in Stats.
	batch := 1
	if a.Batch > 1 {
		if a.Sched != nil {
			return nil, fmt.Errorf("%w: Batch requires the default lockstep schedule", ErrBadQuery)
		}
		batch = a.Batch
		for i := 0; i < m; i++ {
			if !src.CanSorted(i) {
				batch = 1
				break
			}
		}
	}
	sched := a.Sched
	if sched == nil {
		sched = Lockstep{}
	}

	view := newSchedView(src)

	heap := NewTopKBuffer(k)
	var memo map[model.ObjectID]model.Grade
	if a.Memoize {
		memo = make(map[model.ObjectID]model.Grade)
	}
	grades := make([]model.Grade, m)
	threshold := func() model.Grade { return t.Apply(view.Bottom) }
	bufs := make([]model.Entry, m*batch)
	counts := make([]int, m)
	var progressBuf []Scored

	// Invariants build: τ must never increase. Every bottom starts at 1,
	// at least every grade, so this holds from the first access on.
	prevTau := model.Grade(math.Inf(1))
	checkTau := func(tau model.Grade) {
		if !(tau <= prevTau) {
			invariantViolated("TA threshold increased from %v to %v at depth %v", prevTau, tau, view.Depth)
		}
		prevTau = tau
	}

	finish := func(exact bool, tau model.Grade) *Result {
		items := heap.Exact()
		guarantee := 1.0
		if !exact {
			if len(items) == k && items[k-1].Grade > 0 {
				guarantee = math.Max(1, float64(tau)/float64(items[k-1].Grade))
			} else if len(items) < k || items[k-1].Grade <= 0 {
				guarantee = math.Inf(1)
			}
		}
		return &Result{
			Items:       items,
			GradesExact: true,
			Theta:       guarantee,
			Rounds:      maxInt(view.Depth),
			Stats:       src.Stats(),
		}
	}

	for {
		next := sched.Next(view)
		if next == -1 {
			// Every list in Z is exhausted: the grade of every
			// object is known, so the current top-k is exact
			// (footnote 14's TAz halting case).
			return finish(true, threshold()), nil
		}
		lo, hi := next, next+1
		if batch > 1 {
			lo, hi = 0, m
		}
		rounds, last := 0, -1
		var fillErr error
		for j := lo; j < hi; j++ {
			counts[j] = 0
			if view.Exhausted[j] {
				continue
			}
			n, err := src.SortedNextN(j, bufs[j*batch:(j+1)*batch])
			counts[j] = n
			if err != nil {
				// The n delivered entries are valid: process them below so
				// their evidence tightens τ and the heap before the run
				// reports its death ceiling (or stops successfully anyway).
				if fillErr == nil {
					fillErr = err
				}
			} else {
				view.Exhausted[j] = n == 0 || src.Exhausted(j)
			}
			if n >= rounds && n > 0 {
				rounds, last = n, j
			}
		}
		if rounds > 0 {
			view.age(lo, hi)
		}
		for r := 0; r < rounds; r++ {
			for i := lo; i < hi; i++ {
				if r >= counts[i] {
					continue
				}
				e := bufs[i*batch+r]
				view.observe(i, e.Grade)
				var overall model.Grade
				if g, hit := lookupMemo(memo, e.Object); hit {
					overall = g
				} else {
					grades[i] = e.Grade
					for j := 0; j < m; j++ {
						if j == i {
							continue
						}
						g, ok, err := src.Random(j, e.Object)
						if err != nil {
							// Death mid-resolution: e.Object is not in the heap
							// yet, so the ceiling must also cover it — its grade
							// is at most t(grades seen so far, 1 everywhere
							// unresolved).
							tau := threshold()
							return finish(false, tau), &AccessError{
								Ceiling: maxGrade(tau, halfResolvedBound(t, grades, i, j, m)),
								Err:     err,
							}
						}
						if !ok {
							return nil, fmt.Errorf("core: object %d missing from list %d", e.Object, j)
						}
						grades[j] = g
					}
					overall = t.Apply(grades)
					if memo != nil {
						memo[e.Object] = overall
					}
				}
				heap.Offer(Scored{Object: e.Object, Grade: overall})
				groupEnd := r == rounds-1 && i == last
				if !groupEnd && !heap.Full() {
					continue
				}
				tau := threshold()
				if invariantsEnabled {
					checkTau(tau)
				}
				if groupEnd {
					// Report the objects actually retained, not the heap's
					// capacity: the heap holds ≤ k items (fewer while
					// filling, or forever when k > N), and under memoization
					// every heap member is also in the memo, so the memo
					// size alone counts each retained object once.
					retained := heap.Len()
					if memo != nil {
						retained = len(memo)
					}
					src.ReportBuffer(retained)
					if a.OnProgress != nil {
						progressBuf = heap.AppendSnapshot(progressBuf[:0])
						p := Progress{
							TopK:        progressBuf,
							Threshold:   tau,
							Guarantee:   math.Inf(1),
							Depth:       maxInt(view.Depth),
							TopKChanges: heap.changes,
						}
						p.Sorted, p.Random = src.Counts()
						if heap.Full() && heap.Kth() > 0 {
							p.Guarantee = math.Max(1, float64(tau)/float64(heap.Kth()))
						}
						if !a.OnProgress(p) {
							return finish(false, tau), nil
						}
					}
				}
				// Stopping rule: at least k objects seen with grade ≥ τ/θ
				// (strictly above τ under StrictStop, so ties at the kth
				// grade are fully resolved before halting).
				if heap.Full() {
					stop := float64(heap.Kth())*theta >= float64(tau)
					if a.StrictStop {
						stop = heap.Kth() > tau
					}
					if stop {
						res := finish(true, tau)
						if theta > 1 {
							res.Theta = theta
						}
						return res, nil
					}
				}
			}
		}
		if fillErr != nil {
			// Death under sorted access. Every delivered entry was processed
			// and the stopping rule did not fire, so the failure is fatal
			// for this run: the final heap (merged upward by the sharded
			// coordinator) plus τ bound everything this run did not return —
			// unseen objects sit at or below τ, and every object evicted
			// from the heap is below its kth grade.
			tau := threshold()
			return finish(false, tau), &AccessError{Ceiling: tau, Err: fillErr}
		}
	}
}

// halfResolvedBound bounds the overall grade of an object whose random
// resolution died partway: grades[sorted] and grades[<failed] are known,
// every list from the failed one on (except sorted, already known)
// contributes the maximal grade 1.
func halfResolvedBound(t agg.Func, grades []model.Grade, sorted, failed, m int) model.Grade {
	for j := failed; j < m; j++ {
		if j != sorted {
			grades[j] = 1
		}
	}
	return t.Apply(grades)
}

func maxGrade(a, b model.Grade) model.Grade {
	if a > b {
		return a
	}
	return b
}

func lookupMemo(memo map[model.ObjectID]model.Grade, obj model.ObjectID) (model.Grade, bool) {
	if memo == nil {
		return 0, false
	}
	g, ok := memo[obj]
	return g, ok
}

func maxInt(xs []int) int {
	v := 0
	for _, x := range xs {
		if x > v {
			v = x
		}
	}
	return v
}
