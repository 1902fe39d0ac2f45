package repro_test

import (
	"errors"
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// shardedWorkloads are the equality workloads for the sharded engine.
func shardedWorkloads(t *testing.T) map[string]*repro.Database {
	t.Helper()
	out := make(map[string]*repro.Database)
	add := func(name string, db *repro.Database, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = db
	}
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 31})
	add("uniform", db, err)
	db, err = workload.Correlated(workload.Spec{N: 400, M: 3, Seed: 32}, 0.05)
	add("correlated", db, err)
	db, err = workload.Zipf(workload.Spec{N: 400, M: 3, Seed: 33}, 2.5)
	add("zipf", db, err)
	return out
}

// TestShardedQueryMatchesSequential is the top-level equality check the
// sharded engine must pass: identical top-k items (objects and grades;
// ties broken by ObjectID) and the same exactness guarantee as the
// sequential run, across Min/Sum/Product and several shard counts.
func TestShardedQueryMatchesSequential(t *testing.T) {
	for name, db := range shardedWorkloads(t) {
		for _, tf := range []repro.AggFunc{repro.Min(3), repro.Sum(3), repro.Product(3)} {
			seq, err := repro.Query(db, tf, 10, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				res, err := repro.Query(db, tf, 10, repro.Options{Shards: shards, ShardWorkers: 4})
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", name, tf.Name(), shards, err)
				}
				if res.Theta != seq.Theta {
					t.Fatalf("%s/%s/shards=%d: Theta %v, want %v", name, tf.Name(), shards, res.Theta, seq.Theta)
				}
				if !res.GradesExact {
					t.Fatalf("%s/%s/shards=%d: grades not exact", name, tf.Name(), shards)
				}
				if len(res.Items) != len(seq.Items) {
					t.Fatalf("%s/%s/shards=%d: %d items, want %d", name, tf.Name(), shards, len(res.Items), len(seq.Items))
				}
				for i := range res.Items {
					if res.Items[i].Object != seq.Items[i].Object || res.Items[i].Grade != seq.Items[i].Grade {
						t.Fatalf("%s/%s/shards=%d item %d: (%d, %v), want (%d, %v)", name, tf.Name(), shards, i,
							res.Items[i].Object, res.Items[i].Grade, seq.Items[i].Object, seq.Items[i].Grade)
					}
				}
			}
		}
	}
}

// TestNewShardedHandleReuse checks the partition-once handle answers many
// queries identically to fresh Options.Shards queries.
func TestNewShardedHandleReuse(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewSharded(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", eng.Shards())
	}
	for _, tf := range []repro.AggFunc{repro.Avg(3), repro.Min(3)} {
		want, err := repro.Query(db, tf, 5, repro.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(tf, 5, repro.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("%s item %d: %+v, want %+v", tf.Name(), i, got.Items[i], want.Items[i])
			}
		}
	}
}

// TestShardedOptionCompatibility checks that option combinations the
// sharded engine cannot honor are rejected up front — every rejection
// carrying the repro.ErrBadQuery identity — while TA and NRA sharding
// (including NoRandomAccess composed with Shards) are accepted.
func TestShardedOptionCompatibility(t *testing.T) {
	db := sampleDB(t)
	bad := []repro.Options{
		{Shards: 2, Algorithm: repro.AlgoFA},
		{Shards: 2, Algorithm: repro.AlgoCA},
		{Shards: 2, Algorithm: repro.AlgoTA, NoRandomAccess: true}, // TA cannot run without random access
		{Shards: 2, Theta: 1.5},
		{Shards: 2, Theta: 0.5}, // invalid θ must not slip through sharded
		{Shards: 2, SortedLists: []int{0}},
		{Shards: 2, OnProgress: func(repro.ProgressView) bool { return true }},
		{Shards: 2, Costs: repro.CostModel{CS: -1, CR: 1}},
		{Shards: -3}, // negative shard counts are rejected
	}
	for i, opts := range bad {
		_, err := repro.Query(db, repro.Min(3), 1, opts)
		if err == nil {
			t.Errorf("options %d (%+v) accepted", i, opts)
			continue
		}
		if !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("options %d rejection %q does not wrap repro.ErrBadQuery", i, err)
		}
	}
	// Shards = 0 is the plain sequential path, whatever the options.
	res, err := repro.Query(db, repro.Avg(3), 1, repro.Options{Algorithm: repro.AlgoNRA, NoRandomAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Object != 1 {
		t.Fatalf("top object %d, want 1", res.Items[0].Object)
	}
	// TA explicit + workers cap + single shard are supported.
	if _, err := repro.Query(db, repro.Avg(3), 2, repro.Options{
		Shards: 2, ShardWorkers: 1, Algorithm: repro.AlgoTA,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Query(db, repro.Avg(3), 2, repro.Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// NoRandomAccess (and the explicit AlgoNRA spelling) now composes
	// with Shards instead of erroring, and really does no random access.
	for _, opts := range []repro.Options{
		{Shards: 2, NoRandomAccess: true},
		{Shards: 2, Algorithm: repro.AlgoNRA},
		{Shards: 1, Algorithm: repro.AlgoNRA, NoRandomAccess: true},
	} {
		res, err := repro.Query(db, repro.Avg(3), 2, opts)
		if err != nil {
			t.Fatalf("NRA sharding options %+v rejected: %v", opts, err)
		}
		if res.Stats.Random != 0 {
			t.Fatalf("NRA sharding options %+v made %d random accesses", opts, res.Stats.Random)
		}
	}
}

// TestShardedNRAQueryMatchesUnsharded is the public-API equality check for
// the no-random-access sharded mode: on every workload — including the
// tie-heavy Zipf one — the answer's true-grade multiset must match
// unsharded NRA's for every shard count, the run must do zero random
// accesses, and on continuous workloads (unique top-k) the object sets
// must be identical.
func TestShardedNRAQueryMatchesUnsharded(t *testing.T) {
	for name, db := range shardedWorkloads(t) {
		for _, tf := range []repro.AggFunc{repro.Min(3), repro.Sum(3)} {
			seq, err := repro.Query(db, tf, 10, repro.Options{NoRandomAccess: true})
			if err != nil {
				t.Fatal(err)
			}
			want := core.TrueGradeMultiset(db, tf, seq.Items)
			for _, shards := range []int{1, 2, 4, 8} {
				res, err := repro.Query(db, tf, 10, repro.Options{
					NoRandomAccess: true, Shards: shards, ShardWorkers: 4,
				})
				if err != nil {
					t.Fatalf("%s/%s/shards=%d: %v", name, tf.Name(), shards, err)
				}
				if res.Stats.Random != 0 {
					t.Fatalf("%s/%s/shards=%d: %d random accesses", name, tf.Name(), shards, res.Stats.Random)
				}
				got := core.TrueGradeMultiset(db, tf, res.Items)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s/shards=%d: grade multiset %v, want %v", name, tf.Name(), shards, got, want)
					}
				}
				if name == "uniform" || name == "correlated" {
					// Continuous grades: the top-k set is unique, so the
					// object sets must agree exactly.
					seqSet := map[repro.ObjectID]bool{}
					for _, it := range seq.Items {
						seqSet[it.Object] = true
					}
					for _, it := range res.Items {
						if !seqSet[it.Object] {
							t.Fatalf("%s/%s/shards=%d: object %d not in unsharded answer %v",
								name, tf.Name(), shards, it.Object, seq.Objects())
						}
					}
				}
			}
		}
	}
}

// TestNRAOnProgressHook checks the cancellable run hook on NRA: the
// callback sees every round and returning false stops the run early
// without an exactness claim.
func TestNRAOnProgressHook(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	res, err := repro.Query(db, repro.Avg(3), 5, repro.Options{
		NoRandomAccess: true,
		OnProgress: func(p repro.ProgressView) bool {
			rounds++
			return rounds < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("callback ran %d times, want 3", rounds)
	}
	if res.Stats.Random != 0 {
		t.Fatalf("NRA made %d random accesses", res.Stats.Random)
	}
	if !math.IsInf(res.Theta, 1) {
		t.Fatalf("early-stopped NRA claims guarantee θ=%v, want +Inf", res.Theta)
	}
	// A full (uncancelled) run still certifies itself.
	full, err := repro.Query(db, repro.Avg(3), 5, repro.Options{NoRandomAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Theta != 1 {
		t.Fatalf("full NRA run Theta = %v, want 1", full.Theta)
	}
}

// TestStrictStopTA checks the canonical tie handling behind the sharded
// engine: on a database whose kth grade ties an unseen object, StrictStop
// keeps reading until the canonical winner (smallest ObjectID among the
// tied) is found.
func TestStrictStopTA(t *testing.T) {
	// Ties everywhere: k=1 under Min; objects 0..3 all have overall 0.5.
	b := repro.NewBuilder(2)
	b.MustAdd(0, 0.5, 0.5)
	b.MustAdd(1, 0.5, 0.5)
	b.MustAdd(2, 0.5, 0.5)
	b.MustAdd(3, 0.5, 0.5)
	db := b.MustBuild()
	res, err := repro.Query(db, repro.Min(2), 2, repro.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Object != 0 || res.Items[1].Object != 1 {
		t.Fatalf("canonical top-2 = %v, want [0 1]", res.Objects())
	}
	if res.Items[0].Grade != 0.5 || res.Items[1].Grade != 0.5 {
		t.Fatalf("grades %v/%v, want 0.5", res.Items[0].Grade, res.Items[1].Grade)
	}
}
