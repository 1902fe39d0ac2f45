package repro_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/workload"
)

// assertOutcomesEqual requires outcome-for-outcome equality — result items
// (with intervals), Theta, errors, and the full access Stats — between a
// BatchQuery run and a reference ParallelQueries run.
func assertOutcomesEqual(t *testing.T, label string, got, want []repro.QueryOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s query %d: error %v, want %v", label, i, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s query %d: error %q, want %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if len(g.Result.Items) != len(w.Result.Items) {
			t.Fatalf("%s query %d: %d items, want %d", label, i, len(g.Result.Items), len(w.Result.Items))
		}
		for j := range w.Result.Items {
			if g.Result.Items[j] != w.Result.Items[j] {
				t.Fatalf("%s query %d item %d: %+v, want %+v", label, i, j, g.Result.Items[j], w.Result.Items[j])
			}
		}
		if g.Result.Theta != w.Result.Theta || g.Result.GradesExact != w.Result.GradesExact {
			t.Fatalf("%s query %d: (Theta, GradesExact) = (%v, %v), want (%v, %v)",
				label, i, g.Result.Theta, g.Result.GradesExact, w.Result.Theta, w.Result.GradesExact)
		}
		gs, ws := g.Result.Stats, w.Result.Stats
		if gs.Sorted != ws.Sorted || gs.Random != ws.Random || gs.WildGuesses != ws.WildGuesses ||
			gs.MaxBuffered != ws.MaxBuffered {
			t.Fatalf("%s query %d: stats %+v, want %+v", label, i, gs, ws)
		}
		for j := range ws.PerList {
			if gs.PerList[j] != ws.PerList[j] {
				t.Fatalf("%s query %d: PerList %v, want %v", label, i, gs.PerList, ws.PerList)
			}
		}
	}
}

// TestBatchQueryMatchesParallelQueries is the shared-scan equality check:
// on tie-heavy and Zipf workloads, across algorithms and policies, a
// BatchQuery's outcomes (results, errors and per-query access Stats) must
// equal ParallelQueries run sequentially. Run under -race in CI, this also
// exercises the concurrent shared windows.
func TestBatchQueryMatchesParallelQueries(t *testing.T) {
	dbs := map[string]func() (*repro.Database, error){
		"zipf": func() (*repro.Database, error) {
			return workload.Zipf(workload.Spec{N: 400, M: 3, Seed: 71}, 2.5)
		},
		"tie-heavy": func() (*repro.Database, error) {
			return workload.Plateau(workload.Spec{N: 300, M: 3, Seed: 72}, 4)
		},
		"uniform": func() (*repro.Database, error) {
			return workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 73})
		},
	}
	for name, gen := range dbs {
		db, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		specs := []repro.QuerySpec{
			{Agg: repro.Avg(3), K: 10},
			{Agg: repro.Min(3), K: 5},
			{Agg: repro.Sum(3), K: 7, Opts: repro.Options{NoRandomAccess: true}},
			{Agg: repro.Avg(3), K: 3, Opts: repro.Options{Algorithm: repro.AlgoCA, Costs: repro.CostModel{CS: 1, CR: 8}}},
			{Agg: repro.Min(3), K: 4, Opts: repro.Options{Algorithm: repro.AlgoFA}},
			{Agg: repro.Max(3), K: 2, Opts: repro.Options{Algorithm: repro.AlgoMaxTopK}},
			{Agg: repro.Avg(3), K: 6},
			{Agg: repro.Avg(3), K: 1, Opts: repro.Options{Theta: 1.5}},
		}
		want := repro.ParallelQueries(db, specs, 1)
		for _, workers := range []int{0, 1, 4} {
			br := repro.BatchQuery(db, specs, workers)
			assertOutcomesEqual(t, name, br.Outcomes, want)
			// The executor's physical scan must not exceed — and for many
			// same-list queries should undercut — the summed logical scans.
			var logical int64
			for _, oc := range br.Outcomes {
				logical += oc.Result.Stats.Sorted
			}
			if br.Scan.Sorted > logical {
				t.Fatalf("%s workers=%d: physical sorted %d exceeds logical sum %d",
					name, workers, br.Scan.Sorted, logical)
			}
			// Per list, the physical depth is the deepest consumer's depth.
			for i := range br.Scan.PerList {
				var deepest int64
				for _, oc := range br.Outcomes {
					if oc.Err == nil && oc.Result.Stats.PerList[i] > deepest {
						deepest = oc.Result.Stats.PerList[i]
					}
				}
				if br.Scan.PerList[i] != deepest {
					t.Fatalf("%s workers=%d list %d: physical depth %d, want deepest consumer %d",
						name, workers, i, br.Scan.PerList[i], deepest)
				}
			}
		}
	}
}

// TestBatchQueryMalformedSpecParity checks malformed specs are rejected
// identically to ParallelQueries — same up-front validation, same error
// identity and text — without disturbing the surrounding queries.
func TestBatchQueryMalformedSpecParity(t *testing.T) {
	db := sampleDB(t)
	specs := []repro.QuerySpec{
		{Agg: repro.Min(3), K: 1},
		{Agg: nil, K: 1},            // nil aggregation
		{Agg: repro.Avg(3), K: -2},  // negative K
		{Agg: repro.Avg(3), K: 0},   // zero K
		{Agg: repro.Avg(3), K: 100}, // K exceeds N=5
		{Agg: repro.Min(2), K: 1},   // arity mismatch
		{Agg: repro.Sum(3), K: 2},
	}
	want := repro.ParallelQueries(db, specs, 1)
	for _, workers := range []int{0, 1, 4} {
		br := repro.BatchQuery(db, specs, workers)
		assertOutcomesEqual(t, "malformed", br.Outcomes, want)
		for _, i := range []int{1, 2, 3, 4, 5} {
			if !errors.Is(br.Outcomes[i].Err, repro.ErrBadQuery) {
				t.Fatalf("workers=%d: spec %d error %v does not wrap ErrBadQuery", workers, i, br.Outcomes[i].Err)
			}
		}
	}
	// A nil database fails every spec without panicking.
	if br := repro.BatchQuery(nil, specs[:1], 1); br.Outcomes[0].Err == nil {
		t.Fatal("nil database accepted")
	}
}

// TestBatchQueryRejectsShardedSpecs pins the documented incompatibility:
// sharded specs are refused with ErrBadQuery instead of silently bypassing
// the shared scan.
func TestBatchQueryRejectsShardedSpecs(t *testing.T) {
	db := sampleDB(t)
	br := repro.BatchQuery(db, []repro.QuerySpec{
		{Agg: repro.Min(3), K: 1, Opts: repro.Options{Shards: 2}},
		{Agg: repro.Avg(3), K: 2},
	}, 2)
	if !errors.Is(br.Outcomes[0].Err, repro.ErrBadQuery) {
		t.Fatalf("sharded spec: got %v, want ErrBadQuery", br.Outcomes[0].Err)
	}
	if br.Outcomes[1].Err != nil {
		t.Fatalf("well-formed neighbour failed: %v", br.Outcomes[1].Err)
	}
}

func TestBatchQueryEmpty(t *testing.T) {
	if br := repro.BatchQuery(sampleDB(t), nil, 3); len(br.Outcomes) != 0 {
		t.Fatalf("got %d outcomes for empty batch", len(br.Outcomes))
	}
}
