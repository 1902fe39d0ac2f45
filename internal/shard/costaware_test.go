package shard_test

import (
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestCostAwareTAShardedMatchesTA checks the tentpole's identity property
// across the workload battery (including the tie-heavy plateau families
// and Zipf) and shard counts: the cost-aware TA mode returns the same
// true-grade multiset as sequential TA, with exact reported grades, under
// the full concurrency of the default worker pool (the suite runs with
// -race in CI). At k = 60 every shard holds many members at once, so the
// merges of only what a report adds and the heap of unpinned members run
// at depth; max pins members before every field is known.
func TestCostAwareTAShardedMatchesTA(t *testing.T) {
	const m = 3
	for name, db := range workloadsUnderTest(t, m) {
		for _, tf := range []agg.Func{agg.Avg(m), agg.Min(m), agg.Max(m)} {
			for _, k := range []int{1, 7, 60} {
				if k > db.N() {
					continue
				}
				seq, err := (&core.TA{}).Run(access.New(db, access.AllowAll), tf, k)
				if err != nil {
					t.Fatal(err)
				}
				want := core.TrueGradeMultiset(db, tf, seq.Items)
				for _, p := range []int{1, 2, 4, 8} {
					eng, err := shard.New(db, p)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Query(tf, k, shard.Options{CostAwareTA: true})
					if err != nil {
						t.Fatalf("%s/%s/k=%d/P=%d: %v", name, tf.Name(), k, p, err)
					}
					if !res.GradesExact {
						t.Fatalf("%s/%s/k=%d/P=%d: GradesExact false", name, tf.Name(), k, p)
					}
					got := core.TrueGradeMultiset(db, tf, res.Items)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s/k=%d/P=%d: grade multiset %v, want %v",
								name, tf.Name(), k, p, got, want)
						}
					}
					for _, it := range res.Items {
						if truth := tf.Apply(db.Grades(it.Object)); it.Grade != truth {
							t.Fatalf("%s/%s/k=%d/P=%d: object %d reported %v, true %v",
								name, tf.Name(), k, p, it.Object, it.Grade, truth)
						}
					}
				}
			}
		}
	}
}

// TestCostAwareTAShardedCharge checks the point of the mode: behind
// backends that declare expensive random access (cR/cS = 8), the
// cost-aware TA mode is charged less than the plain TA mode for the same
// answer.
func TestCostAwareTAShardedCharge(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 12000, M: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	build := func() *shard.Engine {
		dbs, err := db.Partition(4)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]shard.ShardBackend, len(dbs))
		for s, sdb := range dbs {
			lists := make([]access.ListSource, sdb.M())
			for i := range lists {
				lists[i] = access.NewRemote(sdb.List(i), access.CostModel{CS: 1, CR: 8}, access.Latency{})
			}
			shards[s] = shard.ShardBackend{DB: sdb, Lists: lists}
		}
		eng, err := shard.FromBackends(shards)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain, err := build().Query(tf, 10, shard.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := build().Query(tf, 10, shard.Options{Workers: 1, CostAwareTA: true})
	if err != nil {
		t.Fatal(err)
	}
	want := core.TrueGradeMultiset(db, tf, plain.Items)
	got := core.TrueGradeMultiset(db, tf, aware.Items)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answers diverged: %v vs %v", got, want)
		}
	}
	if aware.Stats.Charged() >= plain.Stats.Charged() {
		t.Fatalf("cost-aware TA charged %g, plain TA charged %g",
			aware.Stats.Charged(), plain.Stats.Charged())
	}
}

// TestCostAwareTAOptionValidation pins the option rejections.
func TestCostAwareTAOptionValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 3, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(agg.Avg(3), 5, shard.Options{CostAwareTA: true, NoRandomAccess: true}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("CostAwareTA+NoRandomAccess: err = %v, want ErrBadQuery", err)
	}
}
