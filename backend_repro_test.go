package repro_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestAutoShardsSentinel checks Options.Shards = AutoShards: the engine
// picks the shard count itself and the answer stays the canonical top-k of
// an explicit sharded run, in both the TA and no-random-access modes.
func TestAutoShardsSentinel(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 500, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	tf := repro.Avg(3)
	want, err := repro.Query(db, tf, 10, repro.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []repro.Options{
		{Shards: repro.AutoShards},
		{Shards: repro.AutoShards, NoRandomAccess: true},
	} {
		res, err := repro.Query(db, tf, 10, opts)
		if err != nil {
			t.Fatalf("auto-sharded query %+v failed: %v", opts, err)
		}
		for i := range want.Items {
			if res.Items[i].Object != want.Items[i].Object {
				t.Fatalf("%+v: item %d object %d, want %d", opts, i, res.Items[i].Object, want.Items[i].Object)
			}
		}
	}
	// Other negative shard counts still carry the ErrBadQuery identity.
	if _, err := repro.Query(db, tf, 10, repro.Options{Shards: -3}); !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("Shards=-3: err = %v, want ErrBadQuery", err)
	}
}

// TestBackendOptionsChargeAndPreserveAnswers checks Options.Backend /
// Options.Cache end to end: answers match the plain run on the sequential
// and sharded paths, backends bill their declared costs, and the cache
// only ever lowers the charge.
func TestBackendOptionsChargeAndPreserveAnswers(t *testing.T) {
	db, err := workload.Zipf(workload.Spec{N: 400, M: 3, Seed: 42}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	tf := repro.Avg(3)
	backend := &repro.BackendSpec{SortedCost: 2, RandomCost: 10}
	// The sharded cases serialize their workers: the charge comparison
	// below needs identical access sequences, and concurrent workers'
	// cancellation depths depend on interleaving — which inserting a cache
	// perturbs, occasionally letting the cached run overshoot deeper and
	// bill more than the uncached one.
	for _, base := range []repro.Options{
		{},
		{Shards: 4, ShardWorkers: 1},
		{Shards: 4, NoRandomAccess: true, ShardWorkers: 1},
	} {
		plain, err := repro.Query(db, tf, 5, base)
		if err != nil {
			t.Fatal(err)
		}
		withBackend := base
		withBackend.Backend = backend
		res, err := repro.Query(db, tf, 5, withBackend)
		if err != nil {
			t.Fatalf("%+v: %v", withBackend, err)
		}
		for i := range plain.Items {
			if res.Items[i].Object != plain.Items[i].Object {
				t.Fatalf("%+v: item %d diverged from plain run", withBackend, i)
			}
		}
		wantCharged := 2*float64(res.Stats.Sorted) + 10*float64(res.Stats.Random)
		if res.Stats.Charged() != wantCharged {
			t.Fatalf("%+v: charged %g, want %g", withBackend, res.Stats.Charged(), wantCharged)
		}
		withCache := withBackend
		withCache.Cache = &repro.CacheSpec{}
		cres, err := repro.Query(db, tf, 5, withCache)
		if err != nil {
			t.Fatalf("%+v: %v", withCache, err)
		}
		for i := range plain.Items {
			if cres.Items[i].Object != plain.Items[i].Object {
				t.Fatalf("%+v: item %d diverged from plain run", withCache, i)
			}
		}
		if cres.Stats.Charged() > res.Stats.Charged() {
			t.Fatalf("%+v: cached run charged %g, uncached %g", withCache, cres.Stats.Charged(), res.Stats.Charged())
		}
	}
}

// TestShardedStackCachePersistsAcrossQueries checks the engine-handle
// path: a NewFaultyStack engine's caches survive across queries, so a
// repeated query is billed (almost) nothing and the hit rate climbs.
func TestShardedStackCachePersistsAcrossQueries(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 400, M: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewFaultyStack(db, 4, &repro.BackendSpec{SortedCost: 3, RandomCost: 3}, nil, &repro.CacheSpec{})
	if err != nil {
		t.Fatal(err)
	}
	tf := repro.Avg(3)
	first, err := eng.Query(tf, 5, repro.ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Query(tf, 5, repro.ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Items {
		if second.Items[i] != first.Items[i] {
			t.Fatalf("repeat query diverged at item %d", i)
		}
	}
	if second.Stats.Charged() >= first.Stats.Charged() {
		t.Fatalf("repeat query charged %g, first charged %g — the shared cache should absorb the repeat",
			second.Stats.Charged(), first.Stats.Charged())
	}
	var hits int64
	for _, cs := range eng.CacheStats() {
		hits += cs.Hits + cs.ProbeHits
	}
	if hits == 0 {
		t.Fatal("no cache hits after a repeated query")
	}
}

// TestScheduleOptionValidation pins the repro-level schedule plumbing.
func TestScheduleOptionValidation(t *testing.T) {
	db := sampleDB(t)
	// Sequential and TA-sharded paths reject schedules.
	for _, opts := range []repro.Options{
		{Schedule: repro.ScheduleCostAware},
		{Shards: 2, Schedule: repro.ScheduleCostAware},
	} {
		if _, err := repro.Query(db, repro.Min(3), 1, opts); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%+v: err = %v, want ErrBadQuery", opts, err)
		}
	}
	// The sharded no-random-access mode accepts both schedules.
	for _, sched := range []repro.Schedule{repro.ScheduleWave, repro.ScheduleCostAware} {
		res, err := repro.Query(db, repro.Min(3), 2, repro.Options{
			Shards: 2, NoRandomAccess: true, Schedule: sched,
		})
		if err != nil {
			t.Fatalf("schedule %q rejected: %v", sched, err)
		}
		if res.Stats.Random != 0 {
			t.Fatalf("schedule %q made random accesses", sched)
		}
	}
}

// TestBackendSpecValidation checks malformed backend specs are rejected
// with the ErrBadQuery identity on both the sequential and sharded paths —
// a negative cost would flip the cost-aware scheduler's priorities, so it
// must never reach an engine.
func TestBackendSpecValidation(t *testing.T) {
	db := sampleDB(t)
	bad := []*repro.BackendSpec{
		{SortedCost: -1, RandomCost: 8},
		{SortedCost: 1, RandomCost: -8},
		{RandomCost: 8}, // random cost without a positive sorted cost
		{SortedCost: 1, RandomCost: 1, Jitter: 1.5},
		{SortedCost: 1, RandomCost: 1, Latency: -1},
		{SortedCost: 1, RandomCost: 1, StragglerShards: -1},
	}
	for i, spec := range bad {
		for _, shards := range []int{0, 2} {
			_, err := repro.Query(db, repro.Min(3), 1, repro.Options{Shards: shards, Backend: spec})
			if !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("spec %d shards=%d: err = %v, want ErrBadQuery", i, shards, err)
			}
		}
		if _, err := repro.NewFaultyStack(db, 2, spec, nil, nil); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("spec %d: NewFaultyStack err = %v, want ErrBadQuery", i, err)
		}
	}
}

// TestBatchRejectsBackendSpecs checks BatchQuery refuses per-query backend
// stacks (they cannot compose with the shared scan) with the ErrBadQuery
// identity, without failing the rest of the batch.
func TestBatchRejectsBackendSpecs(t *testing.T) {
	db := sampleDB(t)
	specs := []repro.QuerySpec{
		{Agg: repro.Min(3), K: 1},
		{Agg: repro.Min(3), K: 1, Opts: repro.Options{Backend: &repro.BackendSpec{}}},
		{Agg: repro.Min(3), K: 1, Opts: repro.Options{Cache: &repro.CacheSpec{}}},
	}
	br := repro.BatchQuery(db, specs, 0)
	if br.Outcomes[0].Err != nil {
		t.Fatalf("plain spec failed: %v", br.Outcomes[0].Err)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(br.Outcomes[i].Err, repro.ErrBadQuery) {
			t.Fatalf("spec %d: err = %v, want ErrBadQuery", i, br.Outcomes[i].Err)
		}
	}
}
