package shard_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/workload"
)

// countingList counts every raw access that reaches the underlying list, so
// a test can assert a query stopped *before* touching the backend.
type countingList struct {
	access.ListSource
	calls *atomic.Int64
}

func (c countingList) At(pos int) model.Entry {
	c.calls.Add(1)
	return c.ListSource.At(pos)
}

func (c countingList) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	c.calls.Add(1)
	return c.ListSource.GradeOf(obj)
}

// countingEngine partitions db into p shards whose lists all count their raw
// accesses into one shared counter.
func countingEngine(t *testing.T, db *model.Database, p int) (*shard.Engine, *atomic.Int64) {
	t.Helper()
	dbs, err := db.Partition(p)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	calls := new(atomic.Int64)
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = countingList{sdb.List(i), calls}
		}
		shards[s] = shard.ShardBackend{DB: sdb, Lists: lists}
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		t.Fatalf("FromBackends: %v", err)
	}
	return eng, calls
}

// TestCancelledContextBoundedAccesses: a query issued on an
// already-cancelled context must return ctx.Err() itself — not a wrapped
// worker error — without a single backend access, in every execution mode.
// The ctx check sits at the entry of every access, so cancellation cost is
// bounded at access granularity, not scan granularity.
func TestCancelledContextBoundedAccesses(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 11})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	tf := agg.Avg(3)
	modes := []struct {
		name string
		p    int
		opts shard.Options
	}{
		{"ta-p1", 1, shard.Options{}},
		{"ta-p4", 4, shard.Options{}},
		{"cost-aware-ta-p4", 4, shard.Options{CostAwareTA: true}},
		{"nra-wave-p1", 1, shard.Options{NoRandomAccess: true}},
		{"nra-wave-p4", 4, shard.Options{NoRandomAccess: true}},
		{"nra-cost-aware-p4", 4, shard.Options{NoRandomAccess: true, Schedule: shard.ScheduleCostAware}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			eng, calls := countingEngine(t, db, mode.p)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := eng.QueryContext(ctx, tf, 10, mode.opts)
			if res != nil {
				t.Fatalf("cancelled query returned a result: %+v", res)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if n := calls.Load(); n != 0 {
				t.Fatalf("cancelled query still made %d raw backend accesses", n)
			}
		})
	}
}

// deadShardEngine partitions db into p shards and kills list 0 of the
// highest-index shard permanently.
func deadShardEngine(t *testing.T, db *model.Database, p int) *shard.Engine {
	t.Helper()
	dbs, err := db.Partition(p)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		shards[s] = shard.ShardBackend{DB: sdb}
		if s == len(dbs)-1 {
			lists := make([]access.ListSource, sdb.M())
			for i := range lists {
				lists[i] = sdb.List(i)
			}
			lists[0] = access.NewFaulty(lists[0], access.FaultPlan{Dead: true})
			shards[s].Lists = lists
		}
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		t.Fatalf("FromBackends: %v", err)
	}
	return eng
}

// trueGrade computes obj's overall grade directly from the database.
func trueGrade(db *model.Database, tf agg.Func, obj model.ObjectID) model.Grade {
	grades := make([]model.Grade, db.M())
	for i := range grades {
		g, ok := db.List(i).GradeOf(obj)
		if !ok {
			return model.Grade(math.Inf(-1))
		}
		grades[i] = g
	}
	return tf.Apply(grades)
}

// TestShardLossDegradesTheta: losing one shard permanently must yield a
// successful degraded answer — GradesExact false, DeadShards counted, the
// dead shard flagged in the per-shard stats — whose Theta satisfies the
// Section 6.2 soundness condition against the full database: θ·t(y) ≥ t(z)
// for every answer y and non-answer z.
func TestShardLossDegradesTheta(t *testing.T) {
	db, err := workload.Zipf(workload.Spec{N: 400, M: 3, Seed: 12}, 2.0)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	tf := agg.Avg(3)
	const k, p = 8, 4
	for _, mode := range []string{"ta", "nra"} {
		t.Run(mode, func(t *testing.T) {
			eng := deadShardEngine(t, db, p)
			var per []shard.ShardStat
			opts := shard.Options{
				NoRandomAccess: mode == "nra",
				Retry:          access.Retry{MaxAttempts: 2},
				OnShardStats:   func(ps []shard.ShardStat) { per = ps },
			}
			res, err := eng.Query(tf, k, opts)
			if err != nil {
				t.Fatalf("degraded query failed: %v", err)
			}
			if res.GradesExact {
				t.Fatal("degraded answer still claims exact grades")
			}
			if res.Theta < 1 {
				t.Fatalf("certified θ = %g below 1", res.Theta)
			}
			if res.Stats.DeadShards != 1 {
				t.Fatalf("DeadShards = %d, want 1", res.Stats.DeadShards)
			}
			if res.Stats.Faults == 0 {
				t.Fatal("dead list injected no counted faults")
			}
			if len(per) != p || !per[p-1].Dead || per[0].Dead {
				t.Fatalf("per-shard death flags wrong: %+v", per)
			}
			if len(res.Items) != k {
				t.Fatalf("degraded answer has %d items, want %d", len(res.Items), k)
			}
			// Soundness of the certified θ against the full database.
			answers := make(map[model.ObjectID]bool, k)
			worst := model.Grade(math.Inf(1))
			for _, it := range res.Items {
				answers[it.Object] = true
				if g := trueGrade(db, tf, it.Object); g < worst {
					worst = g
				}
			}
			for _, obj := range db.Objects() {
				if answers[obj] {
					continue
				}
				if z := trueGrade(db, tf, obj); res.Theta*float64(worst) < float64(z)-1e-12 {
					t.Fatalf("θ = %g unsound: answer grade %g vs non-answer %d at %g",
						res.Theta, float64(worst), obj, float64(z))
				}
			}
			// MinTheta gates: a floor the certified θ violates must reject
			// with the underlying backend error; a generous floor passes.
			if res.Theta > 1 {
				opts.OnShardStats = nil
				opts.MinTheta = 1
				if _, err := eng.Query(tf, k, opts); !errors.Is(err, access.ErrBackend) {
					t.Fatalf("MinTheta 1 vs θ=%g: want ErrBackend, got %v", res.Theta, err)
				}
				opts.MinTheta = res.Theta + 1
				if _, err := eng.Query(tf, k, opts); err != nil {
					t.Fatalf("MinTheta %g should accept θ=%g: %v", opts.MinTheta, res.Theta, err)
				}
			}
		})
	}
}

// TestAllShardsDeadFails: when every shard is lost there are no survivors to
// certify any θ — the query must fail with the backend error, not fabricate
// an answer.
func TestAllShardsDeadFails(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 2, Seed: 13})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	dbs, err := db.Partition(2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = access.NewFaulty(sdb.List(i), access.FaultPlan{Dead: true})
		}
		shards[s] = shard.ShardBackend{DB: sdb, Lists: lists}
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		t.Fatalf("FromBackends: %v", err)
	}
	for _, noRandom := range []bool{false, true} {
		opts := shard.Options{NoRandomAccess: noRandom, Retry: access.Retry{MaxAttempts: 2}}
		if _, err := eng.Query(agg.Min(2), 5, opts); !errors.Is(err, access.ErrBackend) {
			t.Fatalf("noRandom=%v: want ErrBackend, got %v", noRandom, err)
		}
	}
}

// TestRobustnessOptionValidation covers the MinTheta and cost-model
// option rules: MinTheta is 0 or a finite θ ≥ 1, and Costs is validated in
// every mode, as on the sequential path.
func TestRobustnessOptionValidation(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 120, M: 2, Seed: 14})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	eng, err := shard.New(db, 2)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	tf := agg.Min(2)
	bad := []shard.Options{
		{MinTheta: 0.5},
		{MinTheta: -1},
		{MinTheta: math.NaN()},
		{MinTheta: math.Inf(1), NoRandomAccess: true},
		{Costs: access.CostModel{CS: 0, CR: 5}},
		{Costs: access.CostModel{CS: math.NaN(), CR: 1}, NoRandomAccess: true},
		{Costs: access.CostModel{CS: 1, CR: math.Inf(1)}, CostAwareTA: true},
	}
	for i, opts := range bad {
		if _, err := eng.Query(tf, 5, opts); !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("case %d (%+v): want ErrBadQuery, got %v", i, opts, err)
		}
	}
	res, err := eng.Query(tf, 5, shard.Options{MinTheta: 2, Costs: access.CostModel{CS: 1, CR: 4}, CostAwareTA: true})
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if res.Theta != 1 || res.Stats.DeadShards != 0 {
		t.Fatalf("fault-free query degraded: θ=%g dead=%d", res.Theta, res.Stats.DeadShards)
	}
}
