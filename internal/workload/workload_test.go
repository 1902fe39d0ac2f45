package workload

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestAllGeneratorsProduceValidDatabases(t *testing.T) {
	spec := Spec{N: 500, M: 4, Seed: 1}
	gens := map[string]func() (*model.Database, error){
		"uniform":        func() (*model.Database, error) { return IndependentUniform(spec) },
		"zipf":           func() (*model.Database, error) { return Zipf(spec, 2) },
		"correlated":     func() (*model.Database, error) { return Correlated(spec, 0.1) },
		"anticorrelated": func() (*model.Database, error) { return AntiCorrelated(spec, 0.1) },
		"plateau":        func() (*model.Database, error) { return Plateau(spec, 5) },
		"distinct":       func() (*model.Database, error) { return DistinctUniform(spec) },
		"mixture":        func() (*model.Database, error) { return Mixture(spec, []float64{0.3, 0.3, 0.4}) },
	}
	for name, gen := range gens {
		// Building the database rejects any grade outside [0, 1].
		db, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if db.N() != spec.N || db.M() != spec.M {
			t.Errorf("%s: got %dx%d, want %dx%d", name, db.N(), db.M(), spec.N, spec.M)
		}
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a, err := IndependentUniform(Spec{N: 100, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := IndependentUniform(Spec{N: 100, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := IndependentUniform(Spec{N: 100, M: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, true
	for _, obj := range a.Objects() {
		ga, gb, gc := a.Grades(obj), b.Grades(obj), c.Grades(obj)
		for j := range ga {
			if ga[j] != gb[j] {
				same = false
			}
			if ga[j] != gc[j] {
				diff = false
			}
		}
	}
	if !same {
		t.Error("same seed produced different databases")
	}
	if diff {
		t.Error("different seeds produced identical databases")
	}
}

func TestDistinctUniformSatisfiesDistinctness(t *testing.T) {
	db, err := DistinctUniform(Spec{N: 300, M: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Distinct() {
		t.Fatal("DistinctUniform violated the distinctness property")
	}
	// Grades must be exactly the values (i+1)/(N+1).
	for j := 0; j < db.M(); j++ {
		seen := make(map[model.Grade]bool)
		for pos := 0; pos < db.N(); pos++ {
			seen[db.List(j).At(pos).Grade] = true
		}
		if len(seen) != db.N() {
			t.Fatalf("list %d has %d distinct grades, want %d", j, len(seen), db.N())
		}
	}
}

func TestPlateauHasTies(t *testing.T) {
	db, err := Plateau(Spec{N: 300, M: 2, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if db.Distinct() {
		t.Fatal("Plateau with 4 levels over 300 objects must contain ties")
	}
	levels := make(map[model.Grade]bool)
	for pos := 0; pos < db.N(); pos++ {
		levels[db.List(0).At(pos).Grade] = true
	}
	if len(levels) > 4 {
		t.Fatalf("found %d grade levels, want <= 4", len(levels))
	}
}

func TestCorrelatedIsCorrelated(t *testing.T) {
	db, err := Correlated(Spec{N: 2000, M: 2, Seed: 4}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if r := pearson(db); r < 0.9 {
		t.Fatalf("correlation %.3f, want >= 0.9", r)
	}
	anti, err := AntiCorrelated(Spec{N: 2000, M: 2, Seed: 4}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if r := pearson(anti); r > 0 {
		t.Fatalf("anti-correlated workload has positive correlation %.3f", r)
	}
}

// pearson computes the correlation between list-0 and list-1 grades.
func pearson(db *model.Database) float64 {
	var sx, sy, sxx, syy, sxy float64
	n := float64(db.N())
	for _, obj := range db.Objects() {
		g := db.Grades(obj)
		x, y := float64(g[0]), float64(g[1])
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	return cov / math.Sqrt(vx*vy)
}

func TestZipfIsSkewed(t *testing.T) {
	db, err := Zipf(Spec{N: 2000, M: 1, Seed: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// With skew 4 the median grade is far below the mean of a uniform.
	var below float64
	for _, obj := range db.Objects() {
		if db.Grades(obj)[0] < 0.1 {
			below++
		}
	}
	if frac := below / float64(db.N()); frac < 0.5 {
		t.Fatalf("only %.0f%% of grades below 0.1; want a skewed mass", 100*frac)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := IndependentUniform(Spec{N: 0, M: 2}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := IndependentUniform(Spec{N: 2, M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Mixture(Spec{N: 2, M: 2, Seed: 1}, []float64{1}); err == nil {
		t.Error("bad mixture fractions accepted")
	}
}
