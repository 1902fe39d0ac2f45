package agg

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// catalog returns every aggregation function of arity m.
func catalog(m int) []Func {
	fs := []Func{
		Min(m), Max(m), Sum(m), Avg(m), Product(m), Median(m),
		GeometricMean(m), Lukasiewicz(m), Constant(m, 0.25),
	}
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = float64(i + 1)
	}
	fs = append(fs, WeightedSum(ws))
	if m >= 2 {
		fs = append(fs, MinOfFirstTwo(m))
	}
	if m >= 3 {
		fs = append(fs, MinPlus(m), Gate())
	}
	return fs
}

// TestDeclaredPropertiesMatchBehaviour cross-checks every function's
// declared property flags against randomized sampling: declared properties
// must never be refuted, and undeclared strictness must have a witness.
func TestDeclaredPropertiesMatchBehaviour(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		v := NewVerifier(7, 4000)
		for _, f := range catalog(m) {
			if f.Name() == "gate" && m != 3 {
				continue
			}
			if !v.CheckMonotone(f) {
				t.Errorf("m=%d %s: monotonicity violated", m, f.Name())
			}
			if f.StrictlyMonotone() && v.WitnessNotStrictlyMonotone(f) {
				t.Errorf("m=%d %s: declared strictly monotone but a witness refutes it", m, f.Name())
			}
			if f.StrictlyMonotoneEach() && v.WitnessNotStrictlyMonotoneEach(f) {
				t.Errorf("m=%d %s: declared strictly monotone in each argument but refuted", m, f.Name())
			}
			if f.StrictlyMonotoneEach() && !f.StrictlyMonotone() {
				t.Errorf("m=%d %s: strictly monotone in each argument implies strictly monotone", m, f.Name())
			}
			if f.Strict() && !v.CheckStrictAtOnes(f) {
				t.Errorf("m=%d %s: declared strict but t=1 does not characterize all-ones", m, f.Name())
			}
		}
	}
}

// TestUndeclaredStrictnessHasWitness checks the negative direction for the
// flags where sampling can find witnesses.
func TestUndeclaredStrictnessHasWitness(t *testing.T) {
	v := NewVerifier(11, 4000)
	for _, m := range []int{2, 4} {
		for _, f := range []Func{Max(m), Constant(m, 0.25)} {
			ones := make([]model.Grade, m)
			for i := range ones {
				ones[i] = 1
			}
			nearOnes := make([]model.Grade, m)
			copy(nearOnes, ones)
			nearOnes[0] = 0.5
			if f.Apply(nearOnes) < 1 && f.Apply(ones) == 1 {
				t.Errorf("m=%d %s: behaves strict but is declared non-strict", m, f.Name())
			}
		}
		// Lukasiewicz is declared not strictly monotone; find a witness.
		if !v.WitnessNotStrictlyMonotone(Lukasiewicz(m)) {
			t.Errorf("m=%d lukasiewicz: no non-strict-monotonicity witness found", m)
		}
		// Min is not strictly monotone in each argument.
		if !v.WitnessNotStrictlyMonotoneEach(Min(m)) {
			t.Errorf("m=%d min: no witness that it is not SM in each argument", m)
		}
	}
}

func TestKnownValues(t *testing.T) {
	g := func(vals ...float64) []model.Grade {
		out := make([]model.Grade, len(vals))
		for i, v := range vals {
			out[i] = model.Grade(v)
		}
		return out
	}
	cases := []struct {
		f    Func
		in   []model.Grade
		want float64
	}{
		{Min(3), g(0.2, 0.7, 0.5), 0.2},
		{Max(3), g(0.2, 0.7, 0.5), 0.7},
		{Sum(3), g(0.2, 0.7, 0.5), 1.4},
		{Avg(4), g(0.2, 0.4, 0.6, 0.8), 0.5},
		{Product(2), g(0.5, 0.5), 0.25},
		{Median(3), g(0.9, 0.1, 0.5), 0.5},
		{Median(4), g(0.1, 0.2, 0.8, 0.9), 0.2}, // lower median
		{WeightedSum([]float64{2, 1}), g(0.25, 0.5), 1.0},
		{Lukasiewicz(2), g(0.3, 0.4), 0},
		{Lukasiewicz(2), g(0.9, 0.8), 0.7},
		{GeometricMean(2), g(0.25, 1), 0.5},
		{MinPlus(3), g(0.3, 0.4, 0.5), 0.5},
		{MinPlus(3), g(0.1, 0.2, 0.9), 0.3},
		{Gate(), g(0.8, 0.6, 1), 0.6},
		{Gate(), g(0.8, 0.6, 0.9), 0.3},
		{MinOfFirstTwo(3), g(0.8, 0.6, 0.1), 0.6},
		{Constant(2, 0.25), g(0.9, 0.9), 0.25},
	}
	for _, tc := range cases {
		if got := float64(tc.f.Apply(tc.in)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", tc.f.Name(), tc.in, got, tc.want)
		}
	}
}

func TestArityEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	Min(3).Apply([]model.Grade{0.5})
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MinPlus(2)":       func() { MinPlus(2) },
		"MinOfFirstTwo(1)": func() { MinOfFirstTwo(1) },
		"negative weight":  func() { WeightedSum([]float64{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMonotoneQuick is a quick.Check form of the monotonicity contract for
// a few representative functions.
func TestMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []Func{Min(3), Sum(3), Product(3), Median(3), MinPlus(3), Gate()} {
		f := f
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed ^ rng.Int63()))
			lo := make([]model.Grade, 3)
			hi := make([]model.Grade, 3)
			for i := range lo {
				lo[i] = model.Grade(r.Float64())
				hi[i] = lo[i] + model.Grade(r.Float64())*(1-lo[i])
			}
			return f.Apply(lo) <= f.Apply(hi)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

// TestBottomAndTop checks the Section 8 boundary helpers.
func TestBottomAndTop(t *testing.T) {
	if Bottom(Min(3)) != 0 || TopValue(Min(3)) != 1 {
		t.Error("min: bottom/top should be 0/1")
	}
	if Bottom(Sum(3)) != 0 || TopValue(Sum(3)) != 3 {
		t.Error("sum: bottom/top should be 0/3")
	}
	if Bottom(Constant(2, 0.25)) != 0.25 {
		t.Error("constant: bottom should be 0.25")
	}
}

func TestOWA(t *testing.T) {
	g := func(vals ...float64) []model.Grade {
		out := make([]model.Grade, len(vals))
		for i, v := range vals {
			out[i] = model.Grade(v)
		}
		return out
	}
	cases := []struct {
		weights []float64
		in      []model.Grade
		want    float64
	}{
		{[]float64{0, 0, 1}, g(0.5, 0.2, 0.9), 0.2}, // min
		{[]float64{1, 0, 0}, g(0.5, 0.2, 0.9), 0.9}, // max
		{[]float64{1, 1, 1}, g(0.3, 0.6, 0.9), 0.6}, // average (normalized)
		{[]float64{0, 1, 0}, g(0.3, 0.6, 0.9), 0.6}, // median
		{[]float64{2, 2}, g(0.2, 0.8), 0.5},         // normalization
	}
	for _, tc := range cases {
		got := float64(OWA(tc.weights).Apply(tc.in))
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("OWA(%v)(%v) = %v, want %v", tc.weights, tc.in, got, tc.want)
		}
	}
	// Property flags: min-like OWA is strict; max-like is not; both are
	// strictly monotone; neither is SM in each argument.
	v := NewVerifier(77, 3000)
	minLike := OWA([]float64{0, 0, 1})
	maxLike := OWA([]float64{1, 0, 0})
	for _, f := range []Func{minLike, maxLike} {
		if !v.CheckMonotone(f) {
			t.Errorf("%s: not monotone", f.Name())
		}
		if v.WitnessNotStrictlyMonotone(f) {
			t.Errorf("%s: strict monotonicity refuted", f.Name())
		}
	}
	if !minLike.Strict() || maxLike.Strict() {
		t.Error("OWA strictness flags wrong")
	}
	if !v.CheckStrictAtOnes(minLike) {
		t.Error("min-like OWA fails strictness sampling")
	}
	if !v.WitnessNotStrictlyMonotoneEach(minLike) {
		t.Error("expected an SM-each counterexample for min-like OWA")
	}
	for name, f := range map[string]func(){
		"empty":    func() { OWA(nil) },
		"negative": func() { OWA([]float64{-1, 2}) },
		"zero-sum": func() { OWA([]float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OWA %s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestApplyAllocatesNothing pins the bound table's hot path: NRA-family
// bookkeeping calls Apply at least twice per sorted access, so no
// aggregation may allocate for any arity a query accepts (up to 64 lists).
func TestApplyAllocatesNothing(t *testing.T) {
	for _, m := range []int{3, 64} {
		ws := make([]float64, m)
		for i := range ws {
			ws[i] = float64(m - i)
		}
		gs := make([]model.Grade, m)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := range gs {
			gs[i] = model.Grade(rng.Float64())
		}
		for _, f := range append(catalog(m), OWA(ws)) {
			if f.Name() == "gate" && m != 3 {
				continue
			}
			if n := testing.AllocsPerRun(100, func() { f.Apply(gs) }); n != 0 {
				t.Errorf("m=%d %s: %v allocations per Apply, want 0", m, f.Name(), n)
			}
		}
	}
}

// TestMedianMatchesSortedCopy checks Median against a sorted copy — the
// lower median for even m — on random vectors, with ties, at both parities
// and on both sides of the stack buffer's width.
func TestMedianMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 3, 4, 7, 10, 63, 64, 65, 100} {
		f := Median(m)
		gs := make([]model.Grade, m)
		for trial := 0; trial < 200; trial++ {
			for i := range gs {
				gs[i] = model.Grade(rng.Intn(8)) / 8 // a handful of values: ties
			}
			tmp := append([]model.Grade(nil), gs...)
			sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
			want := tmp[(m-1)/2]
			before := append([]model.Grade(nil), gs...)
			if got := f.Apply(gs); got != want {
				t.Fatalf("m=%d: Median(%v) = %v, want %v", m, gs, got, want)
			}
			if !slices.Equal(gs, before) {
				t.Fatalf("m=%d: Median reordered its argument", m)
			}
		}
	}
}
