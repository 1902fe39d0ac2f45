package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// Naive is the obvious linear-cost algorithm from the paper's introduction:
// it reads every entry of every list under sorted access, computes every
// object's overall grade, and returns the k best. It performs no random
// accesses, so it is also the ground-truth oracle for tests and the
// degenerate optimum when cS = 0 is approached.
type Naive struct{}

// Name implements Algorithm.
func (Naive) Name() string { return "Naive" }

// Run implements Algorithm.
func (Naive) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "Naive", false); err != nil {
		return nil, err
	}
	m := src.M()
	grades := make(map[model.ObjectID][]model.Grade, src.N())
	for i := 0; i < m; i++ {
		for {
			e, ok, err := src.SortedNext(i)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			gs := grades[e.Object]
			if gs == nil {
				gs = make([]model.Grade, m)
				grades[e.Object] = gs
			}
			gs[i] = e.Grade
		}
		src.ReportBuffer(len(grades))
	}
	heap := NewTopKBuffer(k)
	//lint:orderfree TopKBuffer.Offer is insertion-order-insensitive (canonical grade/ID tie-break)
	for obj, gs := range grades {
		heap.Offer(Scored{Object: obj, Grade: t.Apply(gs)})
	}
	return &Result{
		Items:       heap.Exact(),
		GradesExact: true,
		Theta:       1,
		Rounds:      src.N(),
		Stats:       src.Stats(),
	}, nil
}

// MaxTopK is the specialized algorithm the paper cites for t = max
// (Section 3): k rounds of sorted access in parallel, no random accesses,
// at most mk sorted accesses. The top k objects under max must each appear
// in the top k of the list realizing their maximum, so the k best observed
// entries are a correct answer with exact grades.
type MaxTopK struct{}

// Name implements Algorithm.
func (MaxTopK) Name() string { return "MaxTopK" }

// Run implements Algorithm. It requires t to be agg.Max (it is unsound for
// any other aggregation) and rejects every other Func, whatever its name.
func (MaxTopK) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "MaxTopK", false); err != nil {
		return nil, err
	}
	if agg.KindOf(t) != agg.KindMax {
		return nil, fmt.Errorf("%w: MaxTopK applies only to agg.Max, got %s", ErrBadQuery, t.Name())
	}
	m := src.M()
	best := make(map[model.ObjectID]model.Grade)
	for round := 0; round < k; round++ {
		for i := 0; i < m; i++ {
			e, ok, err := src.SortedNext(i)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if g, seen := best[e.Object]; !seen || e.Grade > g {
				best[e.Object] = e.Grade
			}
		}
		src.ReportBuffer(len(best))
	}
	heap := NewTopKBuffer(k)
	//lint:orderfree TopKBuffer.Offer is insertion-order-insensitive (canonical grade/ID tie-break)
	for obj, g := range best {
		heap.Offer(Scored{Object: obj, Grade: g})
	}
	return &Result{
		Items:       heap.Exact(),
		GradesExact: true,
		Theta:       1,
		Rounds:      k,
		Stats:       src.Stats(),
	}, nil
}
