package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// aggsFor returns the aggregation functions exercised by the cross-checks.
func aggsFor(m int) []agg.Func {
	fs := []agg.Func{
		agg.Min(m), agg.Max(m), agg.Sum(m), agg.Avg(m),
		agg.Product(m), agg.Median(m), agg.GeometricMean(m),
		agg.Lukasiewicz(m),
	}
	if m >= 2 {
		fs = append(fs, agg.MinOfFirstTwo(m))
	}
	if m >= 3 {
		fs = append(fs, agg.MinPlus(m))
	}
	return fs
}

// databasesUnderTest returns a diverse set of small databases.
func databasesUnderTest(t *testing.T, m int) map[string]*model.Database {
	t.Helper()
	out := make(map[string]*model.Database)
	add := func(name string, db *model.Database, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = db
	}
	spec := func(n int, seed int64) workload.Spec { return workload.Spec{N: n, M: m, Seed: seed} }
	db, err := workload.IndependentUniform(spec(60, 1))
	add("uniform", db, err)
	db, err = workload.Correlated(spec(60, 2), 0.05)
	add("correlated", db, err)
	db, err = workload.AntiCorrelated(spec(60, 3), 0.05)
	add("anticorrelated", db, err)
	db, err = workload.Zipf(spec(60, 4), 2.5)
	add("zipf", db, err)
	db, err = workload.Plateau(spec(60, 5), 4)
	add("plateau", db, err)
	db, err = workload.DistinctUniform(spec(60, 6))
	add("distinct", db, err)
	db, err = workload.Plateau(spec(12, 7), 2)
	add("tiny-ties", db, err)
	return out
}

// gradeMultisetsEqual compares two descending grade slices within a small
// tolerance (aggregation arithmetic is exact here, but geometric mean uses
// Pow).
func gradeMultisetsEqual(a, b []model.Grade) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > 1e-12 {
			return false
		}
	}
	return true
}

func groundTruth(db *model.Database, t agg.Func, k int) []model.Grade {
	top := model.TopKByGrade(db, k, t.Apply)
	gs := make([]model.Grade, len(top))
	for i, e := range top {
		gs[i] = e.Grade
	}
	return gs
}

// TestExactAlgorithmsMatchNaive cross-checks every exact algorithm against
// the full-knowledge ground truth on every workload, aggregation and k.
func TestExactAlgorithmsMatchNaive(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		dbs := databasesUnderTest(t, m)
		for dbName, db := range dbs {
			for _, tf := range aggsFor(m) {
				for _, k := range []int{1, 3, 10} {
					if k > db.N() {
						continue
					}
					want := groundTruth(db, tf, k)
					algos := []Algorithm{
						&TA{},
						&TA{Memoize: true},
						&TA{Sched: Delta{}},
						FA{},
						Naive{},
						&CA{H: 2},
						&CA{H: 7},
						&Intermittent{H: 3},
					}
					for _, al := range algos {
						name := fmt.Sprintf("m=%d/%s/%s/k=%d/%s", m, dbName, tf.Name(), k, al.Name())
						src := access.New(db, access.AllowAll)
						res, err := al.Run(src, tf, k)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if m > 1 || alwaysExact(al) {
							if !res.GradesExact {
								// CA/Intermittent may legitimately
								// return non-exact grades only if
								// bounds pinned the set; their Grade
								// is W. Skip grade check then.
								continue
							}
						}
						got := res.GradeMultiset()
						if !gradeMultisetsEqual(got, want) {
							t.Fatalf("%s: got grades %v, want %v", name, got, want)
						}
					}
				}
			}
		}
	}
}

func alwaysExact(a Algorithm) bool {
	switch a.(type) {
	case *TA, FA, Naive:
		return true
	}
	return false
}

// TestNRAFindsTopKObjects verifies NRA (both engines) returns a correct
// top-k object set: every returned object's true grade must be at least the
// true k-th grade (ties make the exact set ambiguous, so we compare
// against the grade threshold).
func TestNRAFindsTopKObjects(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		dbs := databasesUnderTest(t, m)
		for dbName, db := range dbs {
			for _, tf := range aggsFor(m) {
				for _, k := range []int{1, 3, 10} {
					if k > db.N() {
						continue
					}
					want := groundTruth(db, tf, k)
					kth := want[len(want)-1]
					for _, engine := range []Engine{LazyEngine, RescanEngine} {
						name := fmt.Sprintf("m=%d/%s/%s/k=%d/%s", m, dbName, tf.Name(), k, engine)
						src := access.New(db, access.Policy{NoRandom: true})
						res, err := (&NRA{Engine: engine}).Run(src, tf, k)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(res.Items) != k {
							t.Fatalf("%s: got %d items, want %d", name, len(res.Items), k)
						}
						for _, it := range res.Items {
							trueGrade := tf.Apply(db.Grades(it.Object))
							if float64(trueGrade) < float64(kth)-1e-12 {
								t.Errorf("%s: object %d has true grade %v below k-th grade %v",
									name, it.Object, trueGrade, kth)
							}
							if float64(it.Lower) > float64(trueGrade)+1e-12 || float64(it.Upper) < float64(trueGrade)-1e-12 {
								t.Errorf("%s: object %d true grade %v outside reported [%v,%v]",
									name, it.Object, trueGrade, it.Lower, it.Upper)
							}
						}
						if res.Stats.Random != 0 {
							t.Errorf("%s: NRA made %d random accesses", name, res.Stats.Random)
						}
					}
				}
			}
		}
	}
}

// TestCAAndIntermittentFindTopKObjects is the set-level check for the two
// bound-based algorithms that use random access.
func TestCAAndIntermittentFindTopKObjects(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		dbs := databasesUnderTest(t, m)
		for dbName, db := range dbs {
			for _, tf := range aggsFor(m) {
				for _, k := range []int{1, 4} {
					want := groundTruth(db, tf, k)
					kth := want[len(want)-1]
					for _, al := range []Algorithm{&CA{H: 3}, &Intermittent{H: 3}} {
						name := fmt.Sprintf("m=%d/%s/%s/k=%d/%s", m, dbName, tf.Name(), k, al.Name())
						src := access.New(db, access.AllowAll)
						res, err := al.Run(src, tf, k)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for _, it := range res.Items {
							trueGrade := tf.Apply(db.Grades(it.Object))
							if float64(trueGrade) < float64(kth)-1e-12 {
								t.Errorf("%s: object %d true grade %v below k-th %v",
									name, it.Object, trueGrade, kth)
							}
						}
					}
				}
			}
		}
	}
}

// TestTAThetaApproximation verifies the TAθ guarantee on random databases:
// for every returned object y and every database object z outside the
// answer, θ·t(y) ≥ t(z).
func TestTAThetaApproximation(t *testing.T) {
	for _, theta := range []float64{1.05, 1.5, 3} {
		for _, m := range []int{2, 3} {
			dbs := databasesUnderTest(t, m)
			for dbName, db := range dbs {
				tf := agg.Avg(m)
				k := 3
				src := access.New(db, access.AllowAll)
				res, err := (&TA{Theta: theta}).Run(src, tf, k)
				if err != nil {
					t.Fatalf("θ=%g m=%d %s: %v", theta, m, dbName, err)
				}
				inAnswer := make(map[model.ObjectID]bool, k)
				minAnswer := model.Grade(math.Inf(1))
				for _, it := range res.Items {
					inAnswer[it.Object] = true
					if it.Grade < minAnswer {
						minAnswer = it.Grade
					}
				}
				for _, obj := range db.Objects() {
					if inAnswer[obj] {
						continue
					}
					z := tf.Apply(db.Grades(obj))
					if theta*float64(minAnswer) < float64(z)-1e-12 {
						t.Fatalf("θ=%g m=%d %s: object %d grade %v violates θ-approximation (answer min %v)",
							theta, m, dbName, obj, z, minAnswer)
					}
				}
			}
		}
	}
}

// TestTANeverMakesWildGuesses asserts the structural property Theorem 6.1
// assumes: TA only random-accesses objects it has already seen under sorted
// access.
func TestTANeverMakesWildGuesses(t *testing.T) {
	for _, m := range []int{2, 4} {
		dbs := databasesUnderTest(t, m)
		for dbName, db := range dbs {
			for _, al := range []Algorithm{&TA{}, FA{}, &CA{H: 2}, &Intermittent{H: 2}} {
				src := access.New(db, access.AllowAll)
				res, err := al.Run(src, agg.Min(m), 2)
				if err != nil {
					t.Fatalf("%s on %s: %v", al.Name(), dbName, err)
				}
				if res.Stats.WildGuesses != 0 {
					t.Errorf("%s on %s: made %d wild guesses", al.Name(), dbName, res.Stats.WildGuesses)
				}
			}
		}
	}
}

// TestMaxTopK verifies the specialized max algorithm: correct answers with
// at most mk sorted accesses and no random accesses (the Section 3 bound).
func TestMaxTopK(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		dbs := databasesUnderTest(t, m)
		for dbName, db := range dbs {
			for _, k := range []int{1, 5} {
				tf := agg.Max(m)
				want := groundTruth(db, tf, k)
				src := access.New(db, access.Policy{NoRandom: true})
				res, err := MaxTopK{}.Run(src, tf, k)
				if err != nil {
					t.Fatalf("m=%d %s k=%d: %v", m, dbName, k, err)
				}
				if !gradeMultisetsEqual(res.GradeMultiset(), want) {
					t.Fatalf("m=%d %s k=%d: got %v want %v", m, dbName, k, res.GradeMultiset(), want)
				}
				if res.Stats.Sorted > int64(m*k) {
					t.Errorf("m=%d %s k=%d: %d sorted accesses exceeds mk=%d",
						m, dbName, k, res.Stats.Sorted, m*k)
				}
				if res.Stats.Random != 0 {
					t.Errorf("m=%d %s k=%d: made random accesses", m, dbName, k)
				}
				for _, bad := range []agg.Func{agg.Min(m), maxNamed{agg.Avg(m)}} {
					if _, err := (MaxTopK{}).Run(access.New(db, access.AllowAll), bad, k); !errors.Is(err, ErrBadQuery) {
						t.Errorf("MaxTopK on %T named %s: err %v, want ErrBadQuery", bad, bad.Name(), err)
					}
				}
			}
		}
	}
}

// maxNamed is a Func that is not max under max's name: MaxTopK, which is
// sound only for max, must go by what built a Func, not by its name.
type maxNamed struct{ agg.Func }

func (maxNamed) Name() string { return "max" }

// TestQueryValidation covers the shared argument checks.
func TestQueryValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 10, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"k=0", func() error {
			_, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Min(2), 0)
			return err
		}},
		{"k>N", func() error {
			_, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Min(2), 11)
			return err
		}},
		{"arity mismatch", func() error {
			_, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Min(3), 1)
			return err
		}},
		{"theta<1", func() error {
			_, err := (&TA{Theta: 0.5}).Run(access.New(db, access.AllowAll), agg.Min(2), 1)
			return err
		}},
		{"TA without random", func() error {
			_, err := (&TA{}).Run(access.New(db, access.Policy{NoRandom: true}), agg.Min(2), 1)
			return err
		}},
		{"FA without sorted", func() error {
			_, err := (FA{}).Run(access.New(db, access.OnlySorted(0)), agg.Min(2), 1)
			return err
		}},
		{"NRA under Z-restriction", func() error {
			_, err := (&NRA{}).Run(access.New(db, access.OnlySorted(0)), agg.Min(2), 1)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}
