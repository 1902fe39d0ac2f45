package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestPublishPoliciesMatchSequentialNRA is the publish-rule property test:
// the engine publishes once the lone cursor halts at P = 1 and on bound
// crossings above it, and at every shard count and under every schedule it must return the
// same top-k object-set evidence as sequential NRA — a valid top-k set
// whose tie-safe true-grade multiset equals the sequential answer's —
// because deferring a publish only changes when coordination happens,
// never what is decided.
func TestPublishPoliciesMatchSequentialNRA(t *testing.T) {
	const m, k = 3, 8
	for name, db := range workloadsUnderTest(t, m) {
		for _, tf := range []agg.Func{agg.Min(m), agg.Avg(m)} {
			kk := k
			if kk > db.N() {
				kk = db.N()
			}
			seq, err := (&core.NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, kk)
			if err != nil {
				t.Fatal(err)
			}
			want := core.TrueGradeMultiset(db, tf, seq.Items)
			for _, p := range []int{1, 2, 4, 7, 8} {
				eng, err := shard.New(db, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, sched := range schedules {
					label := fmt.Sprintf("%s/%s/P=%d/%s", name, tf.Name(), p, sched)
					res, err := eng.Query(tf, kk, shard.Options{NoRandomAccess: true, Schedule: sched})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Stats.Random != 0 {
						t.Fatalf("%s: %d random accesses", label, res.Stats.Random)
					}
					assertValidTopKSet(t, label, db, tf, kk, res.Items)
					got := core.TrueGradeMultiset(db, tf, res.Items)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: grade multiset %v, want %v", label, got, want)
						}
					}
				}
			}
		}
	}
}

// schedules lists every no-random-access schedule the engine runs.
var schedules = []shard.Schedule{shard.ScheduleWave, shard.ScheduleCostAware, shard.ScheduleAdaptive}

// TestPublishStrictP1MatchesSequentialDepth pins the derived P = 1 rule the
// single-shard tests rely on: a lone shard steps singly and publishes once
// its cursor halts, so under every schedule the engine's pause rule
// coincides with sequential NRA's halting rule access for access, and the
// sorted-access count — and the answer items with their intervals — are
// identical.
func TestPublishStrictP1MatchesSequentialDepth(t *testing.T) {
	const m, k = 3, 8
	for _, seed := range []int64{61, 62, 63, 64} {
		db, err := workload.IndependentUniform(workload.Spec{N: 600, M: m, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tf := agg.Avg(m)
		seq, err := (&core.NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := shard.New(db, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range schedules {
			res, err := eng.Query(tf, k, shard.Options{NoRandomAccess: true, Schedule: sched})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed=%d/%s", seed, sched)
			assertItemsEqual(t, label, res.Items, seq.Items)
			if res.Stats.Sorted != seq.Stats.Sorted {
				t.Fatalf("%s: %d sorted accesses, sequential NRA used %d", label, res.Stats.Sorted, seq.Stats.Sorted)
			}
		}
	}
}
