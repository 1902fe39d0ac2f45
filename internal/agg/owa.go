package agg

import (
	"fmt"

	"repro/internal/model"
)

// OWA returns an ordered weighted averaging operator (Yager), a standard
// family in the fuzzy-aggregation literature the paper builds on: the
// grades are sorted descending and combined as Σ wᵢ·x₍ᵢ₎ with Σwᵢ = 1.
// OWA generalizes the paper's running examples —
//
//	weights (0,…,0,1)  = min
//	weights (1,0,…,0)  = max
//	weights (1/m,…,1/m) = average
//	a 1 at the middle position = median
//
// Every OWA operator is monotone and strictly monotone (raising every
// coordinate strictly raises every order statistic, hence the weighted
// sum). It is strict exactly when the last weight — the one applied to the
// minimum — is positive, and it is not strictly monotone in each argument
// (raising one coordinate can leave all weighted order statistics fixed
// when its weight position is zero).
func OWA(weights []float64) Func {
	if len(weights) == 0 {
		panic("agg: OWA needs at least one weight")
	}
	ws := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic("agg: OWA weights must be non-negative")
		}
		ws[i] = w
		sum += w
	}
	if sum <= 0 {
		panic("agg: OWA weights must not all be zero")
	}
	for i := range ws {
		ws[i] /= sum
	}
	m := len(ws)
	return &props{
		name:   fmt.Sprintf("owa%d", m),
		arity:  m,
		strict: ws[m-1] > 0,
		sm:     true,
		smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			var buf [stackArity]model.Grade
			tmp := sorted(gs, buf[:0])
			// Weights run from the largest grade down.
			var v model.Grade
			for i := range tmp {
				v += model.Grade(ws[i]) * tmp[len(tmp)-1-i]
			}
			return v
		},
	}
}
