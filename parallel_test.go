package repro_test

import (
	"testing"

	"repro"
	"repro/internal/workload"
)

func TestParallelQueriesMatchSequential(t *testing.T) {
	db := sampleDB(t)
	specs := []repro.QuerySpec{
		{Agg: repro.Min(3), K: 1},
		{Agg: repro.Avg(3), K: 2},
		{Agg: repro.Sum(3), K: 3, Opts: repro.Options{NoRandomAccess: true}},
		{Agg: repro.Max(3), K: 1, Opts: repro.Options{Algorithm: repro.AlgoMaxTopK}},
		{Agg: repro.Avg(3), K: 2, Opts: repro.Options{Algorithm: repro.AlgoCA, Costs: repro.CostModel{CS: 1, CR: 4}}},
		{Agg: repro.Min(3), K: 5, Opts: repro.Options{Algorithm: repro.AlgoFA}},
	}
	for _, workers := range []int{0, 1, 3} {
		outcomes := repro.ParallelQueries(db, specs, workers)
		if len(outcomes) != len(specs) {
			t.Fatalf("workers=%d: got %d outcomes", workers, len(outcomes))
		}
		for i, oc := range outcomes {
			if oc.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, oc.Err)
			}
			seq, err := repro.Query(db, specs[i].Agg, specs[i].K, specs[i].Opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := oc.Result.GradeMultiset(), seq.GradeMultiset(); len(got) != len(want) {
				t.Fatalf("workers=%d query %d: %v vs %v", workers, i, got, want)
			} else {
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("workers=%d query %d grade %d: %v vs %v", workers, i, j, got[j], want[j])
					}
				}
			}
			if oc.Result.Stats.Sorted != seq.Stats.Sorted || oc.Result.Stats.Random != seq.Stats.Random {
				t.Fatalf("workers=%d query %d: accounting diverged", workers, i)
			}
		}
	}
}

func TestParallelQueriesPropagatesErrors(t *testing.T) {
	db := sampleDB(t)
	outcomes := repro.ParallelQueries(db, []repro.QuerySpec{
		{Agg: repro.Min(3), K: 1},
		{Agg: repro.Min(2), K: 1}, // arity mismatch
	}, 2)
	if outcomes[0].Err != nil {
		t.Fatalf("query 0 failed: %v", outcomes[0].Err)
	}
	if outcomes[1].Err == nil {
		t.Fatal("query 1 should have failed")
	}
}

// TestParallelQueriesValidatesSpecsUpFront checks that malformed specs
// (nil Agg, K < 1, K > N, arity mismatch) are rejected before reaching the
// worker pool, without disturbing the well-formed queries around them.
func TestParallelQueriesValidatesSpecsUpFront(t *testing.T) {
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
	for _, workers := range []int{0, 1, 2, 10} {
		outcomes := repro.ParallelQueries(db, specs, workers)
		for _, i := range []int{1, 2, 3, 4, 5} {
			if outcomes[i].Err == nil {
				t.Fatalf("workers=%d: malformed spec %d accepted", workers, i)
			}
			if outcomes[i].Result != nil {
				t.Fatalf("workers=%d: malformed spec %d has a result", workers, i)
			}
		}
		for _, i := range []int{0, 6} {
			if outcomes[i].Err != nil {
				t.Fatalf("workers=%d: valid spec %d failed: %v", workers, i, outcomes[i].Err)
			}
			seq, err := repro.Query(db, specs[i].Agg, specs[i].K, specs[i].Opts)
			if err != nil {
				t.Fatal(err)
			}
			if outcomes[i].Result.String() != seq.String() {
				t.Fatalf("workers=%d spec %d: %s, want %s", workers, i, outcomes[i].Result, seq)
			}
		}
	}
	// A nil database fails every spec without panicking.
	outcomes := repro.ParallelQueries(nil, specs[:1], 1)
	if outcomes[0].Err == nil {
		t.Fatal("nil database accepted")
	}
}

// TestParallelQueriesOutcomeEquality is the batch-vs-sequential equality
// check over Min/Sum/Product on generated workloads: results, Theta and
// the access Stats must all match the sequential runs outcome by outcome.
func TestParallelQueriesOutcomeEquality(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var specs []repro.QuerySpec
	for _, tf := range []repro.AggFunc{repro.Min(3), repro.Sum(3), repro.Product(3)} {
		specs = append(specs,
			repro.QuerySpec{Agg: tf, K: 5},
			repro.QuerySpec{Agg: tf, K: 3, Opts: repro.Options{NoRandomAccess: true}},
			repro.QuerySpec{Agg: tf, K: 7},
			repro.QuerySpec{Agg: tf, K: 2, Opts: repro.Options{Shards: 3}},
		)
	}
	for _, workers := range []int{0, 2, 5} {
		outcomes := repro.ParallelQueries(db, specs, workers)
		for i, oc := range outcomes {
			if oc.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, oc.Err)
			}
			seq, err := repro.Query(db, specs[i].Agg, specs[i].K, specs[i].Opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(oc.Result.Items) != len(seq.Items) {
				t.Fatalf("workers=%d query %d: %d items, want %d", workers, i, len(oc.Result.Items), len(seq.Items))
			}
			for j := range seq.Items {
				if oc.Result.Items[j] != seq.Items[j] {
					t.Fatalf("workers=%d query %d item %d: %+v, want %+v",
						workers, i, j, oc.Result.Items[j], seq.Items[j])
				}
			}
			if oc.Result.Theta != seq.Theta {
				t.Fatalf("workers=%d query %d: Theta %v, want %v", workers, i, oc.Result.Theta, seq.Theta)
			}
			// Access accounting is deterministic for sequential specs.
			// Sharded specs are exempt: how deep each worker reads before
			// the coordinator cancels it depends on goroutine scheduling
			// (the answer stays canonical, the cost does not).
			if specs[i].Opts.Shards <= 1 &&
				(oc.Result.Stats.Sorted != seq.Stats.Sorted || oc.Result.Stats.Random != seq.Stats.Random) {
				t.Fatalf("workers=%d query %d: accounting diverged: %+v vs %+v",
					workers, i, oc.Result.Stats, seq.Stats)
			}
		}
	}
}

func TestParallelQueriesEmpty(t *testing.T) {
	if out := repro.ParallelQueries(sampleDB(t), nil, 4); len(out) != 0 {
		t.Fatalf("got %d outcomes for empty batch", len(out))
	}
}
