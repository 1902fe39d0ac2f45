package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestCostAwareTAMatchesTA cross-checks CostAwareTA against TA on the
// whole database battery (uniform, correlated, Zipf, tie-heavy plateau,
// …) and the whole aggregation battery: same true-grade multiset, exact
// reported grades, and GradesExact always true.
func TestCostAwareTAMatchesTA(t *testing.T) {
	const m = 3
	for name, db := range databasesUnderTest(t, m) {
		for _, tf := range aggsFor(m) {
			for _, k := range []int{1, 5, 10} {
				if k > db.N() {
					continue
				}
				ta, err := (&TA{}).Run(access.New(db, access.AllowAll), tf, k)
				if err != nil {
					t.Fatalf("%s/%s/k=%d: TA: %v", name, tf.Name(), k, err)
				}
				for _, h := range []int{0, 4} {
					ca, err := (&CostAwareTA{H: h}).Run(access.New(db, access.AllowAll), tf, k)
					if err != nil {
						t.Fatalf("%s/%s/k=%d/h=%d: %v", name, tf.Name(), k, h, err)
					}
					if !ca.GradesExact {
						t.Fatalf("%s/%s/k=%d/h=%d: GradesExact false", name, tf.Name(), k, h)
					}
					want := TrueGradeMultiset(db, tf, ta.Items)
					got := TrueGradeMultiset(db, tf, ca.Items)
					if !gradeMultisetsEqual(want, got) {
						t.Fatalf("%s/%s/k=%d/h=%d: grade multiset %v, want %v",
							name, tf.Name(), k, h, got, want)
					}
					// Reported grades must equal the true overall grades,
					// not just bound the right objects.
					for _, it := range ca.Items {
						if truth := tf.Apply(db.Grades(it.Object)); it.Grade != truth {
							t.Fatalf("%s/%s/k=%d/h=%d: object %d reported %v, true %v",
								name, tf.Name(), k, h, it.Object, it.Grade, truth)
						}
					}
				}
			}
		}
	}
}

// TestCostAwareTACheaperWhenRandomExpensive pins the tentpole claim at the
// core level: against backends declaring cR/cS ≥ 4, cost-aware TA's
// charged middleware cost is below plain TA's on a plain workload.
func TestCostAwareTACheaperWhenRandomExpensive(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 8000, M: 3, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	for _, ratio := range []float64{4, 8, 16} {
		cm := access.CostModel{CS: 1, CR: ratio}
		src := func() *access.Source {
			lists := make([]access.ListSource, db.M())
			for i := range lists {
				lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
			}
			return access.FromLists(lists, access.AllowAll)
		}
		ta, err := (&TA{}).Run(src(), tf, 10)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := (&CostAwareTA{}).Run(src(), tf, 10)
		if err != nil {
			t.Fatal(err)
		}
		if ca.Stats.Charged() >= ta.Stats.Charged() {
			t.Fatalf("cR/cS=%g: cost-aware TA charged %g, TA charged %g",
				ratio, ca.Stats.Charged(), ta.Stats.Charged())
		}
	}
}

// TestCostAwareTAPhasePeriod checks the h derivation precedence: explicit
// H, then declared backend costs, then the configured cost model, then
// unit costs.
func TestCostAwareTAPhasePeriod(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 50, M: 2, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	plain := access.New(db, access.AllowAll)
	declared := func(cm access.CostModel) *access.Source {
		lists := make([]access.ListSource, db.M())
		for i := range lists {
			lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
		}
		return access.FromLists(lists, access.AllowAll)
	}
	cases := []struct {
		name string
		a    CostAwareTA
		src  *access.Source
		want int
	}{
		{"explicit H wins", CostAwareTA{H: 7, Costs: access.CostModel{CS: 1, CR: 3}}, plain, 7},
		{"declared backend costs", CostAwareTA{}, declared(access.CostModel{CS: 1, CR: 12}), 12},
		{"declared beats configured", CostAwareTA{Costs: access.CostModel{CS: 1, CR: 3}}, declared(access.CostModel{CS: 1, CR: 12}), 12},
		{"configured on plain lists", CostAwareTA{Costs: access.CostModel{CS: 1, CR: 5}}, plain, 5},
		{"unit fallback", CostAwareTA{}, plain, 1},
	}
	for _, c := range cases {
		if got := c.a.phasePeriod(c.src); got != c.want {
			t.Errorf("%s: h = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCostAwareTAPlannerDeepensCheapLists checks the CA-style allocation:
// with one list declared far more expensive than the others, the cheap
// lists end up deeper than the expensive one (fairness still touches it).
func TestCostAwareTAPlannerDeepensCheapLists(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 4000, M: 3, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	lists := make([]access.ListSource, db.M())
	for i := range lists {
		cm := access.CostModel{CS: 1, CR: 4}
		if i == 0 {
			cm = access.CostModel{CS: 16, CR: 64}
		}
		lists[i] = access.NewRemote(db.List(i), cm, access.Latency{})
	}
	src := access.FromLists(lists, access.AllowAll)
	res, err := (&CostAwareTA{}).Run(src, agg.Avg(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	per := res.Stats.PerList
	if per[0] >= per[1] || per[0] >= per[2] {
		t.Fatalf("expensive list 0 deepened as much as cheap lists: depths %v", per)
	}
	if per[0] == 0 {
		t.Fatalf("fairness should still sample the expensive list: depths %v", per)
	}
}

// TestCostAwareTAEarlyStop checks the OnProgress contract: stopping early
// returns only pinned (exact-grade) candidates, and the reported ceiling
// bounds every object outside them.
func TestCostAwareTAEarlyStop(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	steps := 0
	var lastCeil float64
	a := &CostAwareTA{OnProgress: func(p Progress) bool {
		steps++
		lastCeil = float64(p.Threshold)
		for _, it := range p.TopK {
			if it.Lower != it.Upper || it.Grade != it.Lower {
				t.Fatalf("progress TopK carries an unpinned item: %+v", it)
			}
		}
		return steps < 40
	}}
	res, err := a.Run(access.New(db, access.AllowAll), tf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GradesExact {
		t.Fatal("early-stopped result must still carry exact grades")
	}
	for _, it := range res.Items {
		if truth := tf.Apply(db.Grades(it.Object)); it.Grade != truth {
			t.Fatalf("object %d reported %v, true %v", it.Object, it.Grade, truth)
		}
		if float64(it.Grade) > lastCeil {
			// Items above the ceiling are fine (they are *inside* TopK);
			// nothing to assert here — the ceiling bounds the rest.
			continue
		}
	}
	if steps != 40 {
		t.Fatalf("run took %d progress steps, want stop at 40", steps)
	}
}

// TestCostAwareTAValidation pins the capability checks.
func TestCostAwareTAValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20, M: 2, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&CostAwareTA{}).Run(access.New(db, access.Policy{NoRandom: true}), agg.Min(2), 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("NoRandom: err = %v, want ErrBadQuery", err)
	}
	if _, err := (&CostAwareTA{}).Run(access.New(db, access.OnlySorted(0)), agg.Min(2), 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("restricted sorted access: err = %v, want ErrBadQuery", err)
	}
	// A single list needs no random access at all.
	db1, err := workload.IndependentUniform(workload.Spec{N: 20, M: 1, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&CostAwareTA{}).Run(access.New(db1, access.Policy{NoRandom: true}), agg.Min(1), 3)
	if err != nil {
		t.Fatalf("m=1 without random access: %v", err)
	}
	if res.Stats.Random != 0 {
		t.Fatalf("m=1 run made %d random accesses", res.Stats.Random)
	}
	if math.IsNaN(float64(res.Items[0].Grade)) {
		t.Fatal("bad grade")
	}
}

// TestCostAwareTAProgressRecomputeBudget bounds the bookkeeping a progress
// report costs at crawler-sized k: with a hook on every report, bound
// recomputes per sorted access stay at most 9. Refreshing every top-k
// member on every report cost about 90 per sorted access here, refreshing
// only what changed about 13, and the groups, which read one best per
// group of candidates and of open members, measure 7.3 under avg and sum
// (the budget is that plus 25%).
func TestCostAwareTAProgressRecomputeBudget(t *testing.T) {
	db, err := workload.Zipf(workload.Spec{N: 20000, M: 3, Seed: 42}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []agg.Func{agg.Avg(3), agg.Sum(3)} {
		a := &CostAwareTA{Costs: access.CostModel{CS: 1, CR: 4}, OnProgress: func(Progress) bool { return true }}
		res, err := a.Run(access.New(db, access.AllowAll), tf, 250)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(res.Stats.BoundRecomputes) / float64(res.Stats.Sorted)
		t.Logf("%s: %d bound recomputes over %d sorted accesses (%.1f per access)", tf.Name(), res.Stats.BoundRecomputes, res.Stats.Sorted, per)
		if per > 9 {
			t.Errorf("%s: %.1f bound recomputes per sorted access, budget 9", tf.Name(), per)
		}
	}
}

// TestCostAwareTAHookIsObserver: an always-true progress hook leaves a run
// exactly as the hook-free run — the same items in the same order, the same
// sorted and random access counts. The tie-free cases run avg and sum; the
// others are where a report's refreshes used to show: W-ties at the k-th
// grade on an 8-level plateau, and min, whose B can collapse onto W before
// every field is known. They hold because candidates rank by (B, first
// seen), which a refresh inside a report cannot reorder.
func TestCostAwareTAHookIsObserver(t *testing.T) {
	const m = 3
	type hookCase struct {
		label string
		db    *model.Database
		tf    agg.Func
		k     int
	}
	var cases []hookCase
	spec := workload.Spec{N: 3000, M: m, Seed: 96}
	uniform, err := workload.IndependentUniform(spec)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.Zipf(spec, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	correlated, err := workload.Correlated(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		db   *model.Database
	}{{"uniform", uniform}, {"zipf", zipf}, {"correlated", correlated}} {
		for _, tf := range []agg.Func{agg.Avg(m), agg.Sum(m)} {
			for _, k := range []int{1, 10, 100} {
				cases = append(cases, hookCase{fmt.Sprintf("%s/%s/k=%d", d.name, tf.Name(), k), d.db, tf, k})
			}
		}
	}
	plateau, err := workload.Plateau(workload.Spec{N: 400, M: m, Seed: 42}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, hookCase{"plateau8/avg/k=50", plateau, agg.Avg(m), 50})
	big := workload.Spec{N: 20000, M: m, Seed: 42}
	uniformBig, err := workload.IndependentUniform(big)
	if err != nil {
		t.Fatal(err)
	}
	zipfBig, err := workload.Zipf(big, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		hookCase{"uniform20k/min/k=10", uniformBig, agg.Min(m), 10},
		hookCase{"zipf20k/min/k=10", zipfBig, agg.Min(m), 10})
	for _, c := range cases {
		run := func(hook func(Progress) bool) *Result {
			res, err := (&CostAwareTA{Costs: access.CostModel{CS: 1, CR: 4}, OnProgress: hook}).Run(access.New(c.db, access.AllowAll), c.tf, c.k)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain := run(nil)
		hooked := run(func(Progress) bool { return true })
		if plain.Stats.Sorted != hooked.Stats.Sorted || plain.Stats.Random != hooked.Stats.Random {
			t.Errorf("%s: hooked run made %d sorted and %d random accesses, hook-free %d and %d",
				c.label, hooked.Stats.Sorted, hooked.Stats.Random, plain.Stats.Sorted, plain.Stats.Random)
		}
		if !reflect.DeepEqual(plain.Items, hooked.Items) {
			t.Errorf("%s: hooked items %v, hook-free %v", c.label, hooked.Items, plain.Items)
		}
	}
}

// TestCostAwareTAProgressSound checks every progress report against the
// whole database, on the battery of families (tie-heavy plateaus
// included) and aggregations where B can collapse onto W before every
// field is known (min, max): each reported item carries its true grade,
// TopK is in canonical order, and every object not reported is bounded by
// Threshold or, once k items are reported, by the k-th of them. Under
// -tags invariants every report also checks the ceiling against a
// brute-force recomputation over the bound table.
func TestCostAwareTAProgressSound(t *testing.T) {
	const m = 3
	for name, db := range databasesUnderTest(t, m) {
		truth := make(map[model.ObjectID]model.Grade, db.N())
		for _, tf := range []agg.Func{agg.Avg(m), agg.Sum(m), agg.Min(m), agg.Max(m)} {
			for _, e := range db.List(0).Entries() {
				truth[e.Object] = tf.Apply(db.Grades(e.Object))
			}
			for _, k := range []int{1, 5, 20} {
				if k > db.N() {
					continue
				}
				label := fmt.Sprintf("%s/%s/k=%d", name, tf.Name(), k)
				reports := 0
				reported := make(map[model.ObjectID]bool)
				a := &CostAwareTA{Costs: access.CostModel{CS: 1, CR: 4}, OnProgress: func(p Progress) bool {
					reports++
					clear(reported)
					for i, it := range p.TopK {
						if it.Grade != truth[it.Object] || it.Lower != it.Grade || it.Upper != it.Grade {
							t.Fatalf("%s report %d: item %+v, true grade %v", label, reports, it, truth[it.Object])
						}
						if i > 0 && compareScored(p.TopK[i-1], it) >= 0 {
							t.Fatalf("%s report %d: TopK out of canonical order at %d: %v", label, reports, i, p.TopK)
						}
						reported[it.Object] = true
					}
					// Candidates retired along the way sit at or below M_k,
					// which is the k-th reported grade once every member is
					// pinned (and at most the ceiling before).
					bound := p.Threshold
					if len(p.TopK) == k && p.TopK[k-1].Grade > bound {
						bound = p.TopK[k-1].Grade
					}
					for obj, g := range truth {
						if !reported[obj] && g > bound {
							t.Fatalf("%s report %d: object %d (grade %v) unreported above the ceiling %v", label, reports, obj, g, p.Threshold)
						}
					}
					return true
				}}
				res, err := a.Run(access.New(db, access.AllowAll), tf, k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.GradesExact || len(res.Items) != k {
					t.Fatalf("%s: %d items, GradesExact %v", label, len(res.Items), res.GradesExact)
				}
			}
		}
	}
}
