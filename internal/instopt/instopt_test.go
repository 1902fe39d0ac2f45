package instopt

import (
	"testing"

	"repro/internal/access"
	"repro/internal/adversary"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// runTraced executes an algorithm with tracing and verifies the final
// state is a proof of its own answer.
func runTraced(t *testing.T, al core.Algorithm, src *access.Source, tf agg.Func, k int, opts Options) (*core.Result, *Report) {
	t.Helper()
	trace := src.StartTrace()
	res, err := al.Run(src, tf, k)
	if err != nil {
		t.Fatalf("%s: %v", al.Name(), err)
	}
	rep, err := Verify(trace, tf, src.N(), res.Objects(), opts)
	if err != nil {
		t.Fatalf("%s: verify: %v", al.Name(), err)
	}
	return res, rep
}

// TestAlgorithmsHaltInProofState is the capstone correctness test: every
// exact algorithm must halt only once its observations *prove* its answer,
// on every workload.
func TestAlgorithmsHaltInProofState(t *testing.T) {
	specs := []struct {
		name string
		gen  func() (*model.Database, error)
	}{
		{"uniform", func() (*model.Database, error) {
			return workload.IndependentUniform(workload.Spec{N: 150, M: 3, Seed: 51})
		}},
		{"plateau", func() (*model.Database, error) {
			return workload.Plateau(workload.Spec{N: 150, M: 3, Seed: 52}, 4)
		}},
		{"anticorrelated", func() (*model.Database, error) {
			return workload.AntiCorrelated(workload.Spec{N: 150, M: 3, Seed: 53}, 0.05)
		}},
	}
	for _, spec := range specs {
		db, err := spec.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range []agg.Func{agg.Min(3), agg.Avg(3), agg.Sum(3), agg.Median(3)} {
			for _, k := range []int{1, 5} {
				cases := []struct {
					al  core.Algorithm
					pol access.Policy
				}{
					{&core.TA{}, access.AllowAll},
					{&core.TA{Memoize: true}, access.AllowAll},
					{core.FA{}, access.AllowAll},
					{core.Naive{}, access.AllowAll},
					{&core.NRA{}, access.Policy{NoRandom: true}},
					{&core.NRA{Engine: core.RescanEngine}, access.Policy{NoRandom: true}},
					{&core.CA{H: 2}, access.AllowAll},
					{&core.Intermittent{H: 2}, access.AllowAll},
				}
				for _, c := range cases {
					_, rep := runTraced(t, c.al, access.New(db, c.pol), tf, k, Options{})
					if !rep.Valid {
						t.Errorf("%s/%s/k=%d/%s halted without a proof: %s",
							spec.name, tf.Name(), k, c.al.Name(), rep.Reason)
					}
				}
			}
		}
	}
}

// TestTAThetaHaltsInThetaProofState checks the approximate certificate.
func TestTAThetaHaltsInThetaProofState(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{1.1, 1.5, 3} {
		_, rep := runTraced(t, &core.TA{Theta: theta}, access.New(db, access.AllowAll),
			agg.Avg(3), 5, Options{Theta: theta})
		if !rep.Valid {
			t.Errorf("TAθ=%g halted without a θ-proof: %s", theta, rep.Reason)
		}
		// The same trace must NOT generally prove the exact answer.
		// (It can by luck; we only check the θ-certificate holds.)
	}
}

// TestOpponentScriptsAreProofs verifies that each adversarial opponent's
// access script genuinely certifies its answer — i.e. the "shortest
// proofs" the experiments charge against are real proofs. Theorem94's
// opponent is the documented exception (its certificate needs family
// knowledge beyond the general or distinctness models; see EXPERIMENTS.md).
func TestOpponentScriptsAreProofs(t *testing.T) {
	cases := []struct {
		in   *adversary.Instance
		opts Options
	}{
		{adversary.Figure1(50), Options{}},
		{adversary.Figure2(50, 2), Options{Theta: 2}},
		{adversary.Figure3(50), Options{Distinct: true}},
		{adversary.Figure4(50), Options{}},
		{adversary.Figure4Reversed(50), Options{}},
		{adversary.Figure5(8), Options{}},
		{adversary.Theorem91(3, 5), Options{}},
		{adversary.Theorem92(4, 4, 64, 2), Options{Distinct: true}},
		{adversary.Theorem95(3, 8), Options{}},
	}
	for _, c := range cases {
		src := c.in.Source()
		trace := src.StartTrace()
		res, err := c.in.Opponent.Run(src, c.in.Agg, c.in.K)
		if err != nil {
			t.Fatalf("%s: %v", c.in.Name, err)
		}
		rep, err := Verify(trace, c.in.Agg, src.N(), res.Objects(), c.opts)
		if err != nil {
			t.Fatalf("%s: verify: %v", c.in.Name, err)
		}
		if !rep.Valid {
			t.Errorf("%s: opponent script is not a proof: %s", c.in.Name, rep.Reason)
		}
	}
}

// TestVerifierRejectsNonProofs ensures the verifier is not vacuously
// accepting: a truncated run must fail.
func TestVerifierRejectsNonProofs(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 2, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(2)
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	// Read one round only, then claim the best-so-far is the answer.
	e0, _, _ := src.SortedNext(0)
	src.SortedNext(1)
	g1, _, _ := src.Random(1, e0.Object)
	_ = g1
	rep, err := Verify(trace, tf, src.N(), []model.ObjectID{e0.Object}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Fatal("verifier accepted a one-round run as a proof of the top answer")
	}
	if rep.Reason == "" {
		t.Fatal("invalid report lacks a reason")
	}
}

// TestDistinctnessTightensBounds: Figure 3's opponent is a proof only
// under the distinctness assumption.
func TestDistinctnessTightensBounds(t *testing.T) {
	in := adversary.Figure3(50)
	src := in.Source()
	trace := src.StartTrace()
	res, err := in.Opponent.Run(src, in.Agg, in.K)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Verify(trace, in.Agg, src.N(), res.Objects(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if without.Valid {
		t.Fatal("Figure 3 opponent verified without distinctness; the bound should be loose")
	}
	with, err := Verify(trace, in.Agg, src.N(), res.Objects(), Options{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Valid {
		t.Fatalf("Figure 3 opponent rejected under distinctness: %s", with.Reason)
	}
}

// TestVerifyValidation covers argument checking.
func TestVerifyValidation(t *testing.T) {
	tr := &access.Trace{}
	if _, err := Verify(nil, agg.Min(2), 5, []model.ObjectID{1}, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Verify(tr, agg.Min(2), 5, nil, Options{}); err == nil {
		t.Error("empty answer accepted")
	}
	if _, err := Verify(tr, agg.Min(2), 1, []model.ObjectID{1, 2}, Options{}); err == nil {
		t.Error("answer larger than N accepted")
	}
	if _, err := Verify(tr, agg.Min(2), 5, []model.ObjectID{1, 1}, Options{}); err == nil {
		t.Error("duplicate answer accepted")
	}
	if _, err := Verify(tr, agg.Min(2), 5, []model.ObjectID{1}, Options{Theta: 0.5}); err == nil {
		t.Error("θ<1 accepted")
	}
}
