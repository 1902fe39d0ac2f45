package core

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// buildDB is a literal-friendly database constructor for algorithm tests.
func buildDB(t *testing.T, m int, rows map[model.ObjectID][]model.Grade) *model.Database {
	t.Helper()
	b := model.NewBuilder(m)
	for id, gs := range rows {
		if err := b.Add(id, gs...); err != nil {
			t.Fatal(err)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTAHaltsAtThreshold pins TA's behaviour on a hand-computable
// database: with min, the threshold after round 1 is min(0.9, 0.8) = 0.8,
// and object 1's grade 0.8 meets it, so TA halts after a single round.
func TestTAHaltsAtThreshold(t *testing.T) {
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.8},
		2: {0.7, 0.75},
		3: {0.3, 0.5},
	})
	src := access.New(db, access.AllowAll)
	res, err := (&TA{}).Run(src, agg.Min(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if res.Items[0].Object != 1 || res.Items[0].Grade != 0.8 {
		t.Errorf("answer %+v, want object 1 grade 0.8", res.Items[0])
	}
	// Round 1 costs 2 sorted accesses; object 1 tops both lists, so TA
	// probes it once per list encounter (no memoization): 2 random.
	if res.Stats.Sorted != 2 || res.Stats.Random != 2 {
		t.Errorf("accesses %d/%d, want 2/2", res.Stats.Sorted, res.Stats.Random)
	}
}

// TestTAMemoizeSkipsRepeatProbes verifies footnote 7's trade-off: the same
// run with memoization performs strictly fewer random accesses when an
// object is encountered under sorted access in several lists.
func TestTAMemoizeSkipsRepeatProbes(t *testing.T) {
	// Object 2 is encountered under sorted access in both lists before
	// TA halts, so faithful TA probes it twice while memoized TA reuses
	// the first computation.
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.1},
		2: {0.85, 0.9},
		3: {0.1, 0.85},
	})
	plain, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Min(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := (&TA{Memoize: true}).Run(access.New(db, access.AllowAll), agg.Min(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Items[0] != memo.Items[0] {
		t.Fatalf("answers differ: %+v vs %+v", plain.Items[0], memo.Items[0])
	}
	if memo.Stats.Random >= plain.Stats.Random {
		t.Errorf("memoized TA did %d random accesses, plain %d; expected fewer",
			memo.Stats.Random, plain.Stats.Random)
	}
}

// TestTAExhaustionHalt covers the footnote 14 case: when every list in Z
// is exhausted, TA halts with the (exact) answer even though the threshold
// never dropped to the top grade.
func TestTAExhaustionHalt(t *testing.T) {
	// Gate-like scenario shrunk to essentials: threshold stuck above
	// every overall grade.
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.1},
		2: {0.8, 0.2},
		3: {0.7, 0.3},
	})
	src := access.New(db, access.OnlySorted(0))
	res, err := (&TA{}).Run(src, agg.Min(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Object != 3 || res.Items[0].Grade != 0.3 {
		t.Fatalf("answer %+v, want object 3 grade 0.3", res.Items[0])
	}
	if res.Stats.PerList[0] != 3 {
		t.Errorf("TAz read %d entries of list 0, want all 3", res.Stats.PerList[0])
	}
	if res.Stats.PerList[1] != 0 {
		t.Errorf("TAz did %d sorted accesses outside Z", res.Stats.PerList[1])
	}
}

// TestTAProgressGuaranteeSound replays the early-stopping stream and
// verifies every intermediate guarantee against ground truth: stopping at
// that moment must yield a valid (τ/β)-approximation.
func TestTAProgressGuaranteeSound(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	const k = 5
	trueTop := model.TopKByGrade(db, db.N(), tf.Apply) // all grades, descending

	checked := 0
	_, err = (&TA{OnProgress: func(p Progress) bool {
		if math.IsInf(p.Guarantee, 1) || len(p.TopK) < k {
			return true
		}
		checked++
		// The guarantee promises: θ · (worst view grade) ≥ t(z) for
		// every z OUTSIDE the current view. Find the best such z.
		inView := make(map[model.ObjectID]bool, k)
		for _, it := range p.TopK {
			inView[it.Object] = true
		}
		bestOutside := 0.0
		for _, e := range trueTop {
			if !inView[e.Object] {
				bestOutside = float64(e.Grade)
				break
			}
		}
		worst := float64(p.TopK[len(p.TopK)-1].Grade)
		if p.Guarantee*worst < bestOutside-1e-9 {
			t.Fatalf("guarantee θ=%.6f at depth %d is unsound: θ·β=%.6f < best outside=%.6f",
				p.Guarantee, p.Depth, p.Guarantee*worst, bestOutside)
		}
		return true
	}}).Run(access.New(db, access.AllowAll), tf, k)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("progress callback never saw a full top-k")
	}
}

// TestTAProgressItemsExact: every item a TA progress report carries is an
// exact answer item, Lower = Upper = Grade, at the object's true grade —
// what Scored promises for TA and what repro.ProgressView hands out.
func TestTAProgressItemsExact(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 200, M: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	reported := 0
	_, err = (&TA{OnProgress: func(p Progress) bool {
		for _, it := range p.TopK {
			reported++
			if it.Lower != it.Grade || it.Upper != it.Grade || it.Grade != tf.Apply(db.Grades(it.Object)) {
				t.Fatalf("depth %d: reported item %+v, want Lower = Upper = Grade = %v", p.Depth, it, tf.Apply(db.Grades(it.Object)))
			}
		}
		return true
	}}).Run(access.New(db, access.AllowAll), tf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reported == 0 {
		t.Fatal("no progress report carried an item")
	}
}

// TestTAThetaEqualsOneMatchesExact ensures θ=1 is the exact algorithm.
func TestTAThetaEqualsOneMatchesExact(t *testing.T) {
	db, err := workload.Zipf(workload.Spec{N: 300, M: 2, Seed: 22}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&TA{Theta: 1}).Run(access.New(db, access.AllowAll), agg.Avg(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Avg(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.GradeMultiset(), b.GradeMultiset(); !gradeMultisetsEqual(got, want) {
		t.Fatalf("θ=1 answers differ from default: %v vs %v", got, want)
	}
	if a.Stats.Sorted != b.Stats.Sorted || a.Stats.Random != b.Stats.Random {
		t.Fatalf("θ=1 access counts differ: %d/%d vs %d/%d",
			a.Stats.Sorted, a.Stats.Random, b.Stats.Sorted, b.Stats.Random)
	}
}

// TestTAThresholdMonotone instruments a run and asserts the threshold
// never increases (bottom grades only fall, t monotone) — the property
// that makes the stopping rule sound.
func TestTAThresholdMonotone(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	_, err = (&TA{OnProgress: func(p Progress) bool {
		if float64(p.Threshold) > prev+1e-12 {
			t.Fatalf("threshold rose from %v to %v at depth %d", prev, p.Threshold, p.Depth)
		}
		prev = float64(p.Threshold)
		return true
	}}).Run(access.New(db, access.AllowAll), agg.Avg(3), 3)
	if err != nil {
		t.Fatal(err)
	}
}

// TestTALockstepBalanced uses the access trace to verify the default
// schedule is "sorted access in parallel": per-list sorted counts never
// drift more than one step apart.
func TestTALockstepBalanced(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 4, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	if _, err := (&TA{}).Run(src, agg.Avg(4), 3); err != nil {
		t.Fatal(err)
	}
	if imb := trace.MaxSortedImbalance(4, nil); imb > 1 {
		t.Fatalf("lockstep imbalance %d, want <= 1", imb)
	}
	if wg := trace.WildGuessIndexes(); len(wg) != 0 {
		t.Fatalf("TA trace contains wild guesses at %v", wg)
	}
}

// TestTADeltaSchedulerFairness verifies the Section 10 fix: under the
// heuristic schedule no list lags more than the fairness bound.
func TestTADeltaSchedulerFairness(t *testing.T) {
	db, err := workload.Zipf(workload.Spec{N: 2000, M: 3, Seed: 25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const u = 10
	src := access.New(db, access.AllowAll)
	trace := src.StartTrace()
	res, err := (&TA{Sched: Delta{Fairness: u}}).Run(src, agg.Sum(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Verify correctness against ground truth.
	want := groundTruth(db, agg.Sum(3), 5)
	if !gradeMultisetsEqual(res.GradeMultiset(), want) {
		t.Fatalf("delta-scheduled TA wrong: %v vs %v", res.GradeMultiset(), want)
	}
	// Over any window of u·m sorted accesses, every list must appear.
	var sortedLists []int
	for _, e := range trace.Entries {
		if e.Sorted && e.OK {
			sortedLists = append(sortedLists, e.List)
		}
	}
	window := u * 3
	for start := 0; start+window <= len(sortedLists); start += window {
		seen := map[int]bool{}
		for _, l := range sortedLists[start : start+window] {
			seen[l] = true
		}
		if len(seen) != 3 {
			t.Fatalf("window at %d touched only lists %v; fairness violated", start, seen)
		}
	}
}

// TestTAArityOne covers the m=1 degenerate case: no random accesses at
// all, answer after k accesses.
func TestTAArityOne(t *testing.T) {
	db := buildDB(t, 1, map[model.ObjectID][]model.Grade{
		1: {0.9}, 2: {0.8}, 3: {0.7}, 4: {0.1},
	})
	res, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Min(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Random != 0 {
		t.Errorf("m=1 TA did %d random accesses", res.Stats.Random)
	}
	if res.Items[0].Grade != 0.9 || res.Items[1].Grade != 0.8 {
		t.Errorf("answer %v", res.Items)
	}
	if res.Stats.Sorted != 2 {
		t.Errorf("sorted = %d, want 2", res.Stats.Sorted)
	}
}

// TestTAConstantAggregation: with a constant t, every object ties; TA must
// halt immediately after k objects (threshold equals every grade).
func TestTAConstantAggregation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 2, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Constant(2, 0.5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 2 {
		t.Errorf("TA took %d rounds on a constant aggregation, want <= 2", res.Rounds)
	}
	for _, it := range res.Items {
		if it.Grade != 0.5 {
			t.Errorf("grade %v, want 0.5", it.Grade)
		}
	}
}

// TestTAOnMaxHaltsAfterKRounds pins footnote 9's observation.
func TestTAOnMaxHaltsAfterKRounds(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 20} {
		res, err := (&TA{}).Run(access.New(db, access.AllowAll), agg.Max(3), k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > k {
			t.Errorf("k=%d: TA took %d rounds on max, want <= k", k, res.Rounds)
		}
		if res.Stats.Sorted > int64(3*k) {
			t.Errorf("k=%d: %d sorted accesses, want <= mk=%d", k, res.Stats.Sorted, 3*k)
		}
	}
}
