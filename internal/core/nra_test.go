package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestNRABoundsInvariant instruments a run through the table directly:
// after every round, W(R) ≤ t(R) ≤ B(R) must hold for every seen object
// (Propositions 8.1 and 8.2), and the unseen bound τ must dominate every
// unseen object's grade.
func TestNRABoundsInvariant(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []agg.Func{agg.Min(3), agg.Avg(3), agg.Median(3), agg.Product(3)} {
		src := access.New(db, access.Policy{NoRandom: true})
		tb := newTable(src, tf, 5, true)
		for round := 0; round < 50; round++ {
			tb.depth++
			for i := 0; i < 3; i++ {
				e, ok, _ := src.SortedNext(i)
				if !ok {
					continue
				}
				tb.observeSorted(i, e)
			}
			tau := tb.threshold()
			for _, p := range seenParts(tb) {
				obj := p.obj
				truth := tf.Apply(db.Grades(obj))
				if float64(p.w) > float64(truth)+1e-12 {
					t.Fatalf("%s round %d: W(%d)=%v exceeds t=%v", tf.Name(), round, obj, p.w, truth)
				}
				tb.refreshB(p)
				if float64(p.b) < float64(truth)-1e-12 {
					t.Fatalf("%s round %d: B(%d)=%v below t=%v", tf.Name(), round, obj, p.b, truth)
				}
			}
			for _, obj := range db.Objects() {
				if lookup(tb, obj) != nil {
					continue
				}
				truth := tf.Apply(db.Grades(obj))
				if float64(truth) > float64(tau)+1e-12 {
					t.Fatalf("%s round %d: unseen object %d grade %v exceeds τ=%v",
						tf.Name(), round, obj, truth, tau)
				}
			}
			if tb.halted() {
				break
			}
		}
	}
}

// TestNRAEnginesEquivalentQuick is the property-based cross-check of
// Remark 8.7's two bookkeeping engines: on random databases both must
// return the same grade multiset with identical sorted-access counts.
func TestNRAEnginesEquivalentQuick(t *testing.T) {
	prop := func(seed int64, kRaw uint8, mRaw uint8) bool {
		m := int(mRaw)%3 + 1
		k := int(kRaw)%7 + 1
		db, err := workload.Plateau(workload.Spec{N: 60, M: m, Seed: seed}, 5)
		if err != nil {
			return false
		}
		tf := agg.Avg(m)
		lazy, err := (&NRA{Engine: LazyEngine}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
		if err != nil {
			return false
		}
		rescan, err := (&NRA{Engine: RescanEngine}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
		if err != nil {
			return false
		}
		if lazy.Stats.Sorted != rescan.Stats.Sorted {
			return false
		}
		// Compare true grades of the answers (objects may differ on
		// ties).
		for i := range lazy.Items {
			gl := tf.Apply(db.Grades(lazy.Items[i].Object))
			gr := tf.Apply(db.Grades(rescan.Items[i].Object))
			if math.Abs(float64(gl)-float64(gr)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(32)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNRATieBreakByUpperBound pins the Section 8.1 tie-break: equal W,
// higher B wins the top-k slot.
func TestNRATieBreakByUpperBound(t *testing.T) {
	// After round 1: objects 1 and 2 both have W = 0.45 (sum of one
	// seen field and a zero), but object 1's B is higher.
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.8},
		2: {0.7, 0.9},
		3: {0.1, 0.05},
	})
	src := access.New(db, access.Policy{NoRandom: true})
	tb := newTable(src, agg.Avg(2), 1, true)
	tb.depth = 1
	tb.observeSorted(0, model.Entry{Object: 1, Grade: 0.9})
	tb.observeSorted(1, model.Entry{Object: 2, Grade: 0.9})
	if len(tb.topk) != 1 {
		t.Fatalf("topk has %d entries", len(tb.topk))
	}
	// W(1) = 0.45 = W(2); B(1) = (0.9+0.9)/2 = 0.9 = B(2): both bounds
	// tie, so the lower id (1) wins.
	if tb.topk[0].obj != 1 {
		t.Fatalf("topk holds %d, want 1 (tie-break)", tb.topk[0].obj)
	}
	// Now make the bounds differ: deepen list 1 so bottoms fall.
	tb.depth = 2
	tb.observeSorted(1, model.Entry{Object: 1, Grade: 0.8})
	// Object 1 fully known: W = B = 0.85 — it must hold the slot and
	// M_1 = 0.85 > B(2) is false (B(2) = (0.7-bound... just assert the
	// slot).
	if tb.topk[0].obj != 1 || math.Abs(float64(tb.topk[0].w)-0.85) > 1e-12 {
		t.Fatalf("topk = %+v, want object 1 at W=0.85", tb.topk[0])
	}
}

// TestNRARetirementIsPermanent exercises the lazy engine's retirement
// soundness: a retired candidate must never belong to the true top-k.
func TestNRARetirementIsPermanent(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	const k = 10
	src := access.New(db, access.Policy{NoRandom: true})
	res, err := (&NRA{Engine: LazyEngine}).Run(src, tf, k)
	if err != nil {
		t.Fatal(err)
	}
	kth := tf.Apply(db.Grades(res.Items[k-1].Object))
	// Re-run with table access to inspect retirement.
	src = access.New(db, access.Policy{NoRandom: true})
	tb := newTable(src, tf, k, true)
	for !tb.halted() {
		tb.depth++
		progress := false
		for i := 0; i < 3; i++ {
			if e, ok, _ := src.SortedNext(i); ok {
				progress = true
				tb.observeSorted(i, e)
			}
		}
		if !progress {
			break
		}
	}
	for _, p := range seenParts(tb) {
		if p.retired {
			truth := tf.Apply(db.Grades(p.obj))
			if float64(truth) > float64(kth)+1e-12 {
				t.Fatalf("retired object %d has grade %v above the k-th grade %v", p.obj, truth, kth)
			}
		}
	}
}

// TestNRASortedRanksCorrectly verifies the Section 8.1 sorted-order
// procedure: ranks must be in true non-increasing grade order and the
// total cost bounded by k times the worst single-run cost.
func TestNRASortedRanksCorrectly(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db, err := workload.IndependentUniform(workload.Spec{N: 200, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tf := agg.Avg(3)
		const k = 6
		src := access.New(db, access.Policy{NoRandom: true})
		res, err := (&NRASorted{}).Run(src, tf, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != k {
			t.Fatalf("got %d items", len(res.Items))
		}
		prev := math.Inf(1)
		for i, it := range res.Items {
			g := float64(tf.Apply(db.Grades(it.Object)))
			if g > prev+1e-12 {
				t.Fatalf("seed %d: rank %d grade %v above rank %d's %v", seed, i+1, g, i, prev)
			}
			prev = g
		}
		// The set must be a valid top-k (grade multiset check).
		want := groundTruth(db, tf, k)
		var got []model.Grade
		for _, it := range res.Items {
			got = append(got, tf.Apply(db.Grades(it.Object)))
		}
		if !gradeMultisetsEqual(got, want) {
			t.Fatalf("seed %d: grades %v, want %v", seed, got, want)
		}
		// Cost bound: k · max single-run cost (Section 8.1 remark).
		single, err := (&NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Sorted > int64(k)*single.Stats.Sorted {
			t.Fatalf("seed %d: sorted cost %d exceeds k·C_k = %d",
				seed, res.Stats.Sorted, int64(k)*single.Stats.Sorted)
		}
	}
}

// TestNRAOnFigure4StyleTies covers mass-tie behaviour with k near N.
func TestNRAMassTiesFullK(t *testing.T) {
	db, err := workload.Plateau(workload.Spec{N: 40, M: 2, Seed: 34}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Min(2)
	res, err := (&NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 40 {
		t.Fatalf("got %d items, want all 40", len(res.Items))
	}
}
