package agg

import (
	"math/rand"

	"repro/internal/model"
)

// Verifier performs randomized property checks on aggregation functions.
// The declared property flags on each Func are contracts the algorithms rely
// on (e.g. CA's Theorem 8.9 needs strict monotonicity in each argument);
// tests use Verifier to cross-check flags against sampled behaviour.
type Verifier struct {
	rng    *rand.Rand
	trials int
}

// NewVerifier creates a Verifier with the given seed and number of sampled
// trials per property.
func NewVerifier(seed int64, trials int) *Verifier {
	return &Verifier{rng: rand.New(rand.NewSource(seed)), trials: trials}
}

func (v *Verifier) vector(m int) []model.Grade {
	gs := make([]model.Grade, m)
	for i := range gs {
		gs[i] = model.Grade(v.rng.Float64())
	}
	return gs
}

// CheckMonotone samples coordinate-wise dominated pairs and reports the
// first violation of t(x) ≤ t(x'), or true if none is found.
func (v *Verifier) CheckMonotone(t Func) bool {
	m := t.Arity()
	for trial := 0; trial < v.trials; trial++ {
		lo := v.vector(m)
		hi := make([]model.Grade, m)
		for i := range hi {
			hi[i] = lo[i] + model.Grade(v.rng.Float64())*(1-lo[i])
		}
		if t.Apply(lo) > t.Apply(hi) {
			return false
		}
	}
	return true
}

// WitnessNotStrictlyMonotone searches for a pair with every coordinate
// strictly increased yet t not strictly increased; it returns true if such a
// counterexample is found within the trial budget. For functions declared
// strictly monotone it should return false.
func (v *Verifier) WitnessNotStrictlyMonotone(t Func) bool {
	m := t.Arity()
	for trial := 0; trial < v.trials; trial++ {
		lo := v.vector(m)
		hi := make([]model.Grade, m)
		for i := range hi {
			// Strictly above lo[i], strictly below 1.
			hi[i] = lo[i] + model.Grade(v.rng.Float64()+0.001)*(1-lo[i])/2
			if hi[i] <= lo[i] {
				hi[i] = lo[i] + 1e-9
			}
		}
		if t.Apply(hi) <= t.Apply(lo) {
			return true
		}
	}
	return false
}

// WitnessNotStrictlyMonotoneEach searches for a single-coordinate strict
// increase that fails to strictly increase t.
func (v *Verifier) WitnessNotStrictlyMonotoneEach(t Func) bool {
	m := t.Arity()
	for trial := 0; trial < v.trials; trial++ {
		x := v.vector(m)
		i := v.rng.Intn(m)
		y := make([]model.Grade, m)
		copy(y, x)
		y[i] = x[i] + model.Grade(v.rng.Float64())*(1-x[i])/2
		if y[i] <= x[i] {
			y[i] = x[i] + 1e-9
		}
		if y[i] > 1 {
			continue
		}
		if t.Apply(y) <= t.Apply(x) {
			return true
		}
	}
	return false
}

// CheckStrictAtOnes verifies the two directions of strictness at the
// observable boundary: t(1,…,1)=1, and sampled vectors with some coordinate
// below 1 have t < 1. Returns false on any violation.
func (v *Verifier) CheckStrictAtOnes(t Func) bool {
	m := t.Arity()
	ones := make([]model.Grade, m)
	for i := range ones {
		ones[i] = 1
	}
	if t.Apply(ones) != 1 {
		return false
	}
	for trial := 0; trial < v.trials; trial++ {
		x := make([]model.Grade, m)
		copy(x, ones)
		// Drop a random nonempty subset of coordinates strictly below 1.
		dropped := false
		for i := range x {
			if v.rng.Intn(2) == 0 {
				x[i] = model.Grade(v.rng.Float64() * 0.999)
				dropped = true
			}
		}
		if !dropped {
			x[v.rng.Intn(m)] = model.Grade(v.rng.Float64() * 0.999)
		}
		if t.Apply(x) >= 1 {
			return false
		}
	}
	return true
}

// Bottom returns t(0,…,0), the W-bound of a completely unseen object
// (Section 8's lower bound with all missing fields set to 0).
func Bottom(t Func) model.Grade {
	zeros := make([]model.Grade, t.Arity())
	return t.Apply(zeros)
}

// TopValue returns t(1,…,1), the largest overall grade any object can have:
// every list holds grades in [0,1] (model.List rejects any other).
func TopValue(t Func) model.Grade {
	ones := make([]model.Grade, t.Arity())
	for i := range ones {
		ones[i] = 1
	}
	return t.Apply(ones)
}
