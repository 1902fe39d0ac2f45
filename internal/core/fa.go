package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// FA is Fagin's Algorithm (Section 3), the paper's baseline. Phase 1 does
// sorted access in parallel until at least k objects have been seen in all
// m lists; phase 2 fills the missing grades of every seen object by random
// access; phase 3 returns the k best. Its buffer grows with the database
// (every seen object is remembered), in contrast to TA's bounded buffer —
// the access pattern is oblivious to the aggregation function.
type FA struct{}

// Name implements Algorithm.
func (FA) Name() string { return "FA" }

// faState tracks one seen object during FA's phases.
type faState struct {
	known  uint64
	grades []model.Grade
}

// Run implements Algorithm.
func (FA) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "FA", true); err != nil {
		return nil, err
	}
	m := src.M()

	seen := make(map[model.ObjectID]*faState)
	var order []model.ObjectID // discovery order: keeps phases 2 and 3 deterministic
	fullMask := fullMask(m)
	matched := 0
	rounds := 0

	// Phase 1: parallel sorted access until k objects match in all lists.
	for matched < k && !allExhausted(src) {
		rounds++
		for i := 0; i < m; i++ {
			e, ok, err := src.SortedNext(i)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			st := seen[e.Object]
			if st == nil {
				st = &faState{grades: make([]model.Grade, m)}
				seen[e.Object] = st
				order = append(order, e.Object)
			}
			bit := uint64(1) << uint(i)
			if st.known&bit == 0 {
				st.known |= bit
				st.grades[i] = e.Grade
				if st.known == fullMask {
					matched++
				}
			}
		}
		src.ReportBuffer(len(seen))
	}

	// Phase 2: random access for every missing field of every seen object,
	// in discovery order so the access trace is reproducible run to run.
	for _, obj := range order {
		st := seen[obj]
		for i := 0; i < m; i++ {
			bit := uint64(1) << uint(i)
			if st.known&bit != 0 {
				continue
			}
			g, ok, err := src.Random(i, obj)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("core: object %d missing from list %d", obj, i)
			}
			st.grades[i] = g
			st.known |= bit
		}
	}

	// Phase 3: grade everything seen and keep the k best.
	heap := NewTopKBuffer(k)
	for _, obj := range order {
		heap.Offer(Scored{Object: obj, Grade: t.Apply(seen[obj].grades)})
	}
	return &Result{
		Items:       heap.Exact(),
		GradesExact: true,
		Theta:       1,
		Rounds:      rounds,
		Stats:       src.Stats(),
	}, nil
}

func fullMask(m int) uint64 {
	if m == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(m)) - 1
}

func allExhausted(src *access.Source) bool {
	for i := 0; i < src.M(); i++ {
		if !src.Exhausted(i) {
			return false
		}
	}
	return true
}
