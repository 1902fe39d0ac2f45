package repro_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestShardedTAAllocationBudget is the allocation regression guard for the
// columnar engine: a warm sharded-TA query must stay well under one
// mebibyte of heap allocation. The pre-columnar engine allocated 5–6 MB
// per query (candidate maps, per-query sources, row materialization);
// slab-allocated candidates, pooled per-shard sources and column-backed
// batch reads brought it under 100 KB, and this test fails loudly if a
// regression claws back the budget. TotalAlloc is monotonic and unaffected
// by GC timing, so the measurement is stable; averaging over several
// queries absorbs pool-warmup and map-growth noise.
func TestShardedTAAllocationBudget(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	const k = 10
	eng, err := shard.New(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		res, err := eng.Query(tf, k, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != k {
			t.Fatalf("got %d items", len(res.Items))
		}
	}
	// Warm the source pools and coordinator state first.
	for i := 0; i < 3; i++ {
		query()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	const budget = 1 << 20
	if perQuery >= budget {
		t.Fatalf("sharded TA allocates %d B per warm query, budget %d", perQuery, budget)
	}
	t.Logf("sharded TA allocates %d B per warm query (budget %d)", perQuery, budget)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestCostAwareTAAllocationBudget is the allocation guard for the
// crawler-shaped query: cost-aware TA at k = 250 on a 4-shard stack of
// remote backends declaring cR/cS = 4, over a Zipf database. A warm query
// must make fewer than 1 000 heap allocations. A coordinator whose global
// TopKBuffer sorts on every accepted insert (three allocations each) makes
// about 3 100; with inserts placed by binary search it makes about 180.
func TestCostAwareTAAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random quarter of what is put back, so warm queries do not reliably reuse pooled tables")
	}
	db, err := workload.Zipf(workload.Spec{N: 100000, M: 3, Seed: 42}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewFaultyStack(db, 4, &repro.BackendSpec{SortedCost: 1, RandomCost: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k = 250
	tf := agg.Avg(3)
	query := func() {
		res, err := eng.Query(tf, k, repro.ShardOptions{CostAwareTA: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != k {
			t.Fatalf("got %d items", len(res.Items))
		}
	}
	for i := 0; i < 3; i++ {
		query()
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.Mallocs - before.Mallocs) / runs
	const budget = 1000
	if perQuery >= budget {
		t.Fatalf("cost-aware TA makes %d heap allocations per warm query, budget %d", perQuery, budget)
	}
	t.Logf("cost-aware TA makes %d heap allocations per warm query (budget %d)", perQuery, budget)
}

// TestShardedNRAAllocationBudget is the same guard for the no-random-access
// engine: a warm sharded NRA query must stay under one mebibyte of heap
// allocation. Building each query's bound tables from scratch costs
// 1.6–3.1 MB of partial slabs, slot-index pages and heap slices across
// these cases; pooled tables keep that memory across queries, and a warm
// query allocates 3–150 KB over repeated runs.
func TestShardedNRAAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random quarter of what is put back, so warm queries do not reliably reuse pooled tables")
	}
	db, err := workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	opts := shard.Options{NoRandomAccess: true}
	for _, tf := range []agg.Func{agg.Avg(3), agg.Min(3)} {
		for _, p := range []int{1, 4, 8} {
			eng, err := shard.New(db, p)
			if err != nil {
				t.Fatal(err)
			}
			query := func() {
				res, err := eng.Query(tf, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Items) != k {
					t.Fatalf("got %d items", len(res.Items))
				}
			}
			for i := 0; i < 3; i++ {
				query()
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				query()
			}
			runtime.ReadMemStats(&after)
			perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
			const budget = 1 << 20
			if perQuery >= budget {
				t.Errorf("%s P=%d: sharded NRA allocates %d B per warm query, budget %d", tf.Name(), p, perQuery, budget)
				continue
			}
			t.Logf("%s P=%d: sharded NRA allocates %d B per warm query (budget %d)", tf.Name(), p, perQuery, budget)
		}
	}
}

// TestBoundTablePoolConcurrent runs every owner of a pooled bound table at
// once — NRA, CA, Intermittent and cost-aware TA through their own
// cursors or tables, and the 4-shard NRA engine through four cursors per
// query — from 8 goroutines over databases of two arities, two sizes and
// two id layouts (dense ids, and sparse ids remapped by id → 2·id + id mod
// 2), so tables of one query's shape are handed to queries of another and
// move between the slot index and the map and between index sizes. Each
// sequential answer must equal its run in isolation exactly (items,
// intervals and Stats); each sharded answer must return the objects
// sequential NRA returns (continuous grades make the top-k set unique).
// CI runs it with -race -count=10.
func TestBoundTablePoolConcurrent(t *testing.T) {
	type job struct {
		name    string
		run     func() (*core.Result, error)
		sharded bool         // want holds sequential NRA's answer
		want    *core.Result // computed in isolation before the goroutines start
	}
	var dbs []*model.Database
	for _, spec := range []workload.Spec{{N: 2000, M: 3, Seed: 73}, {N: 2000, M: 4, Seed: 74}, {N: 9000, M: 3, Seed: 75}} {
		db, err := workload.IndependentUniform(spec)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	dbs = append(dbs, sparseIDs(t, dbs[0]))
	var jobs []job
	for d, db := range dbs {
		m := db.M()
		tf := agg.Avg(m)
		k := 2 * m
		seq := func(al core.Algorithm, pol access.Policy) func() (*core.Result, error) {
			return func() (*core.Result, error) { return al.Run(access.New(db, pol), tf, k) }
		}
		eng, err := shard.New(db, 4)
		if err != nil {
			t.Fatal(err)
		}
		nra := seq(&core.NRA{}, access.Policy{NoRandom: true})
		for _, j := range []job{
			{name: "NRA", run: nra},
			{name: "CA", run: seq(&core.CA{H: 2}, access.AllowAll)},
			{name: "Intermittent", run: seq(&core.Intermittent{H: 2}, access.AllowAll)},
			{name: "cost-aware TA", run: seq(&core.CostAwareTA{}, access.AllowAll)},
			{name: "sharded NRA", sharded: true, run: func() (*core.Result, error) {
				return eng.Query(tf, k, shard.Options{NoRandomAccess: true})
			}},
		} {
			ref := j.run
			if j.sharded {
				ref = nra
			}
			if j.want, err = ref(); err != nil {
				t.Fatal(err)
			}
			j.name = fmt.Sprintf("db %d (m=%d, N=%d, sparse ids %v) %s", d, m, db.N(), d == len(dbs)-1, j.name)
			jobs = append(jobs, j)
		}
	}
	check := func(j job) error {
		got, err := j.run()
		if err != nil {
			return err
		}
		if !j.sharded {
			if !reflect.DeepEqual(got, j.want) {
				return fmt.Errorf("answer differs from its isolated run\n got %+v\nwant %+v", got, j.want)
			}
			return nil
		}
		want := make(map[model.ObjectID]bool, len(j.want.Items))
		for _, it := range j.want.Items {
			want[it.Object] = true
		}
		for _, it := range got.Items {
			if !want[it.Object] {
				return fmt.Errorf("object %d not in sequential NRA's answer %v", it.Object, j.want.Objects())
			}
		}
		if len(got.Items) != len(j.want.Items) || got.Stats.Random != 0 {
			return fmt.Errorf("%d items and %d random accesses, want %d items and none", len(got.Items), got.Stats.Random, len(j.want.Items))
		}
		return nil
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds*len(jobs); r++ {
				i := (g + r) % len(jobs)
				if err := check(jobs[i]); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, jobs[i].name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// sparseIDs copies db with every id remapped by id → 2·id + id mod 2 (0,
// 3, 4, 7, 8, …): strictly increasing, so every list keeps its order, but
// not arithmetic, so the copy's lists build rank maps.
func sparseIDs(t *testing.T, db *model.Database) *model.Database {
	t.Helper()
	lists := make([]*model.List, db.M())
	for i := range lists {
		es := db.List(i).Entries()
		for j := range es {
			es[j].Object = 2*es[j].Object + es[j].Object%2
		}
		l, err := model.NewListPresorted(es)
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l
	}
	out, err := model.NewDatabase(lists)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
