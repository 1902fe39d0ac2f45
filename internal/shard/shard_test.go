package shard_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/workload"
)

// workloadsUnderTest mirrors core's correctness workloads, including the
// tie-heavy ones the canonical merge must resolve deterministically.
func workloadsUnderTest(t *testing.T, m int) map[string]*model.Database {
	t.Helper()
	out := make(map[string]*model.Database)
	add := func(name string, db *model.Database, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = db
	}
	spec := func(n int, seed int64) workload.Spec { return workload.Spec{N: n, M: m, Seed: seed} }
	db, err := workload.IndependentUniform(spec(240, 1))
	add("uniform", db, err)
	db, err = workload.Correlated(spec(240, 2), 0.05)
	add("correlated", db, err)
	db, err = workload.AntiCorrelated(spec(240, 3), 0.05)
	add("anticorrelated", db, err)
	db, err = workload.Zipf(spec(240, 4), 2.5)
	add("zipf", db, err)
	db, err = workload.Plateau(spec(240, 5), 4)
	add("plateau", db, err)
	db, err = workload.DistinctUniform(spec(240, 6))
	add("distinct", db, err)
	db, err = workload.Plateau(spec(12, 7), 2)
	add("tiny-ties", db, err)
	return out
}

// assertItemsEqual requires identical (Object, Grade) sequences.
func assertItemsEqual(t *testing.T, label string, got, want []core.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Object != want[i].Object || got[i].Grade != want[i].Grade {
			t.Fatalf("%s: item %d = (%d, %v), want (%d, %v)",
				label, i, got[i].Object, got[i].Grade, want[i].Object, want[i].Grade)
		}
	}
}

// TestShardedMatchesGroundTruth checks the engine against the full-
// knowledge oracle on every correctness workload: the answer must be the
// canonical top k (grade descending, ObjectID ascending) for every shard
// count, including tie-heavy databases.
func TestShardedMatchesGroundTruth(t *testing.T) {
	const m = 3
	aggs := []agg.Func{agg.Min(m), agg.Sum(m), agg.Product(m), agg.Avg(m)}
	for name, db := range workloadsUnderTest(t, m) {
		for _, tf := range aggs {
			for _, k := range []int{1, 5, 10} {
				if k > db.N() {
					continue
				}
				truth := model.TopKByGrade(db, k, tf.Apply)
				for _, p := range []int{1, 2, 3, 4, 7} {
					label := fmt.Sprintf("%s/%s/k=%d/P=%d", name, tf.Name(), k, p)
					eng, err := shard.New(db, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, err := eng.Query(tf, k, shard.Options{})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !res.GradesExact || res.Theta != 1 {
						t.Fatalf("%s: result not exact (exact=%v θ=%v)", label, res.GradesExact, res.Theta)
					}
					want := make([]core.Scored, len(truth))
					for i, e := range truth {
						want[i] = core.Scored{Object: e.Object, Grade: e.Grade, Lower: e.Grade, Upper: e.Grade}
					}
					assertItemsEqual(t, label, res.Items, want)
				}
			}
		}
	}
}

// TestShardedMatchesSequentialTA compares the engine against the stock
// sequential TA run on continuous-grade workloads (where the top k is
// unique, so any correct algorithm returns the same items).
func TestShardedMatchesSequentialTA(t *testing.T) {
	const m, k = 3, 8
	for _, seed := range []int64{11, 12, 13} {
		db, err := workload.IndependentUniform(workload.Spec{N: 500, M: m, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range []agg.Func{agg.Min(m), agg.Sum(m), agg.Product(m)} {
			seq, err := (&core.TA{}).Run(access.New(db, access.AllowAll), tf, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				eng, err := shard.New(db, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Query(tf, k, shard.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertItemsEqual(t, fmt.Sprintf("seed=%d/%s/P=%d", seed, tf.Name(), p), res.Items, seq.Items)
				if res.Theta != seq.Theta {
					t.Fatalf("seed=%d/%s/P=%d: Theta %v, want %v", seed, tf.Name(), p, res.Theta, seq.Theta)
				}
			}
		}
	}
}

// TestShardedWorkerCap checks correctness under every worker-pool size,
// including fewer workers than shards (queued shards) and k larger than
// individual shards.
func TestShardedWorkerCap(t *testing.T) {
	const m = 2
	db, err := workload.IndependentUniform(workload.Spec{N: 64, M: m, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(m)
	const k = 20 // shards of 8 objects each: every shard is smaller than k
	truth := model.TopKByGrade(db, k, tf.Apply)
	eng, err := shard.New(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8, 100} {
		res, err := eng.Query(tf, k, shard.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, e := range truth {
			if res.Items[i].Object != e.Object || res.Items[i].Grade != e.Grade {
				t.Fatalf("workers=%d item %d: got (%d,%v), want (%d,%v)",
					workers, i, res.Items[i].Object, res.Items[i].Grade, e.Object, e.Grade)
			}
		}
	}
}

// TestShardedStatsMerge checks the summed accounting: totals must equal
// the sum of what p independent sources would record, and PerList must
// align by attribute index.
func TestShardedStatsMerge(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 200, M: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(agg.Avg(3), 5, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sorted == 0 || res.Stats.Random == 0 {
		t.Fatalf("no accounting recorded: %+v", res.Stats)
	}
	if len(res.Stats.PerList) != 3 {
		t.Fatalf("PerList has %d entries, want 3", len(res.Stats.PerList))
	}
	var perList int64
	for _, d := range res.Stats.PerList {
		perList += d
	}
	if perList != res.Stats.Sorted {
		t.Fatalf("PerList sums to %d, Sorted is %d", perList, res.Stats.Sorted)
	}
}

// TestShardedContextCancel checks that a cancelled context stops the run
// with the context's error.
func TestShardedContextCancel(t *testing.T) {
	db, err := workload.AntiCorrelated(workload.Spec{N: 5000, M: 3, Seed: 23}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, agg.Avg(3), 10, shard.Options{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestShardedConcurrentQueries checks an Engine handle is safe for
// concurrent use (exercised under -race in CI).
func TestShardedConcurrentQueries(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	want, err := eng.Query(tf, 6, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Query(tf, 6, shard.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for j := range res.Items {
				if res.Items[j].Object != want.Items[j].Object {
					t.Errorf("concurrent query diverged at item %d", j)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedValidation covers the up-front query checks.
func TestShardedValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20, M: 2, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(nil, 1, shard.Options{}); err == nil {
		t.Error("nil aggregation accepted")
	}
	if _, err := eng.Query(agg.Min(3), 1, shard.Options{}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := eng.Query(agg.Min(2), 0, shard.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := eng.Query(agg.Min(2), 21, shard.Options{}); err == nil {
		t.Error("k>N accepted")
	}
	if _, err := shard.New(nil, 2); err == nil {
		t.Error("nil database accepted")
	}
	if _, err := shard.New(db, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

// TestFromShards covers assembling an engine from pre-built shards: backends
// that carry only a database and read its lists directly.
func TestFromShards(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 30, M: 2, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := db.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	bare := func(dbs ...*model.Database) []shard.ShardBackend {
		out := make([]shard.ShardBackend, len(dbs))
		for i, sdb := range dbs {
			out[i] = shard.ShardBackend{DB: sdb}
		}
		return out
	}
	eng, err := shard.FromBackends(bare(shards...))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 3 || eng.N() != 30 || eng.M() != 2 {
		t.Fatalf("engine shape: shards=%d n=%d m=%d", eng.Shards(), eng.N(), eng.M())
	}
	if _, err := shard.FromBackends(bare()); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := shard.FromBackends(bare(shards[0], nil)); err == nil {
		t.Error("nil shard accepted")
	}
	if _, err := shard.FromBackends(bare(shards[0], shards[0])); err == nil {
		t.Error("overlapping shards accepted")
	}
	other, err := workload.IndependentUniform(workload.Spec{N: 30, M: 3, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.FromBackends(bare(shards[0], other)); err == nil {
		t.Error("mismatched list counts accepted")
	}
}

// TestForEach covers the shared worker pool.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 100} {
		var calls atomic.Int64
		seen := make([]atomic.Bool, 7)
		shard.ForEach(7, workers, func(i int) {
			calls.Add(1)
			if seen[i].Swap(true) {
				t.Errorf("workers=%d: index %d ran twice", workers, i)
			}
		})
		if calls.Load() != 7 {
			t.Errorf("workers=%d: %d calls, want 7", workers, calls.Load())
		}
	}
	shard.ForEach(0, 4, func(int) { t.Error("fn called for n=0") })
}
