package core

import (
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestCAEscapeClause reproduces footnote 15's trigger scenario: k=2,
// h=1 (cR=cS), and the same object tops every list on the first round —
// at the first random-access opportunity every field of the only seen
// object is known, so the escape clause must fire (no random access, no
// wild guess) and CA must still answer correctly.
func TestCAEscapeClause(t *testing.T) {
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.9},
		2: {0.8, 0.8},
		3: {0.1, 0.2},
	})
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	res, err := (&CA{H: 1}).Run(src, agg.Min(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 sees only object 1 (both lists); the phase at depth 1
	// must skip (escape clause).
	for i, e := range trace.Entries {
		if !e.Sorted {
			// The first random access must not happen before the
			// second round's sorted accesses.
			if i < 2 {
				t.Fatalf("random access at trace position %d, before round 1 completed", i)
			}
		}
	}
	if res.Stats.WildGuesses != 0 {
		t.Fatalf("CA made %d wild guesses", res.Stats.WildGuesses)
	}
	want := groundTruth(db, agg.Min(2), 2)
	var got []model.Grade
	for _, it := range res.Items {
		got = append(got, agg.Min(2).Apply(db.Grades(it.Object)))
	}
	if !gradeMultisetsEqual(got, want) {
		t.Fatalf("answer grades %v, want %v", got, want)
	}
}

// TestCAEqualsNRAWhenHLarge pins the paper's observation that CA with h
// larger than the database is exactly NRA.
func TestCAEqualsNRAWhenHLarge(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 200, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	ca, err := (&CA{H: 10_000}).Run(access.New(db, access.AllowAll), tf, 5)
	if err != nil {
		t.Fatal(err)
	}
	nra, err := (&NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Stats.Random != 0 {
		t.Fatalf("CA with huge h did %d random accesses", ca.Stats.Random)
	}
	if ca.Stats.Sorted != nra.Stats.Sorted || ca.Rounds != nra.Rounds {
		t.Fatalf("CA(h=∞) cost %d/%d rounds %d differs from NRA %d/%d rounds %d",
			ca.Stats.Sorted, ca.Stats.Random, ca.Rounds,
			nra.Stats.Sorted, nra.Stats.Random, nra.Rounds)
	}
}

// TestCAPhasePicksMaxB verifies the phase target rule on a database where
// the best upper bound belongs to a specific object by construction
// (the Figure 5 mechanism in miniature).
func TestCAPhasePicksMaxB(t *testing.T) {
	// Objects 1 and 2 are seen early with high partial sums; object 1's
	// missing grade can still be large (B high) while object 2 is
	// fully known quickly.
	db := buildDB(t, 3, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.9, 0.5},
		2: {0.8, 0.8, 0.9},
		3: {0.2, 0.3, 0.95},
		4: {0.1, 0.1, 0.1},
		5: {0.05, 0.2, 0.2},
	})
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	if _, err := (&CA{H: 1}).Run(src, agg.Sum(3), 1); err != nil {
		t.Fatal(err)
	}
	// The first random access must target object 1: after round 1 it
	// has the largest B (0.9+0.9 seen via lists 0 and 1... list order:
	// L0 top = 1 (0.9), L1 top = 1 (0.9), L2 top = 3 (0.95)). B(1) =
	// 1.8 + bottom. B(3) = 0.95 + 0.9 + 0.9. Both high; object 1 wins
	// on B = 1.8+0.95 = 2.75 vs 3's 0.95+1.8 = 2.75 — tie; but object
	// 1 has two fields known, needing 1 probe. Accept either, but the
	// probe must be one of them.
	for _, e := range trace.Entries {
		if !e.Sorted {
			if e.Object != 1 && e.Object != 3 {
				t.Fatalf("first random access went to object %d, want the max-B candidate (1 or 3)", e.Object)
			}
			break
		}
	}
}

// TestIntermittentProcessesQueueInOrder checks the defining property of
// the straw-man: its random accesses follow TA's encounter order.
func TestIntermittentProcessesQueueInOrder(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	if _, err := (&Intermittent{H: 5}).Run(src, agg.Avg(2), 3); err != nil {
		t.Fatal(err)
	}
	// Collect sorted-encounter order and random-access order; the
	// random order must be a subsequence-compatible reordering: each
	// probed object must have been encountered before, and distinct
	// probed objects appear in first-encounter order.
	firstSeen := map[model.ObjectID]int{}
	orderSeen := []model.ObjectID{}
	var probes []model.ObjectID
	for i, e := range trace.Entries {
		if e.Sorted && e.OK {
			if _, ok := firstSeen[e.Object]; !ok {
				firstSeen[e.Object] = i
				orderSeen = append(orderSeen, e.Object)
			}
		} else if !e.Sorted {
			probes = append(probes, e.Object)
		}
	}
	lastIdx := -1
	probed := map[model.ObjectID]bool{}
	for _, obj := range probes {
		if probed[obj] {
			continue
		}
		probed[obj] = true
		idx, seen := firstSeen[obj]
		if !seen {
			t.Fatalf("intermittent probed unseen object %d (wild guess)", obj)
		}
		if idx < lastIdx {
			t.Fatalf("intermittent probed object %d out of encounter order", obj)
		}
		lastIdx = idx
	}
}

// TestCAAndIntermittentOnGradesExactness: when every answer is fully
// resolved by random access, grades must be exact and equal the truth.
func TestCAGradesExactWhenResolved(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	res, err := (&CA{H: 1}).Run(access.New(db, access.AllowAll), tf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GradesExact {
		// Not guaranteed by the algorithm in general, but with h=1 and
		// this workload the top objects get resolved; if not exact,
		// the intervals must still bracket the truth (checked in the
		// correctness suite), so nothing more to assert here.
		t.Skip("answers not fully resolved on this run")
	}
	for _, it := range res.Items {
		truth := tf.Apply(db.Grades(it.Object))
		if truth != it.Grade {
			t.Fatalf("object %d reported grade %v, truth %v", it.Object, it.Grade, truth)
		}
	}
}

// TestCADerivesHFromCosts covers the Costs → h plumbing CA and
// Intermittent share.
func TestCADerivesHFromCosts(t *testing.T) {
	if got := resolveH(0, access.CostModel{CS: 2, CR: 9}); got != 4 {
		t.Fatalf("resolveH = %d, want 4", got)
	}
	// Zero costs default to unit: h = 1.
	if got := resolveH(0, access.CostModel{}); got != 1 {
		t.Fatalf("resolveH = %d, want 1", got)
	}
	if got := resolveH(7, access.CostModel{CS: 1, CR: 100}); got != 7 {
		t.Fatalf("explicit H overridden: got %d", got)
	}
}

// TestCABookkeepingRecomputeBudget bounds the lazy engine's bookkeeping on
// the run that stresses it most: CA under min at cR/cS = 4 on uniform
// N = 50 000, k = 10, where thousands of objects seen in one list wait as
// candidates. Keeping them in one heap keyed by stale B cost 150–200 bound
// recomputes per sorted access, and per-list FIFOs beside a heap that
// refreshed every stale top cost 7–10; with groups ordered by K, which
// read one best per group and retire a non-viable group whole, the seeds
// measure 3.1–3.2. The budget is 4 on every seed (the measured maximum
// plus 25%).
func TestCABookkeepingRecomputeBudget(t *testing.T) {
	for _, seed := range []int64{42, 123, 456} {
		db, err := workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&CA{Costs: access.CostModel{CS: 1, CR: 4}}).Run(access.New(db, access.AllowAll), agg.Min(3), 10)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(res.Stats.BoundRecomputes) / float64(res.Stats.Sorted)
		t.Logf("seed %d: %d bound recomputes over %d sorted accesses (%.1f per access)", seed, res.Stats.BoundRecomputes, res.Stats.Sorted, per)
		if per > 4 {
			t.Errorf("seed %d: %.1f bound recomputes per sorted access, budget 4", seed, per)
		}
	}
}
