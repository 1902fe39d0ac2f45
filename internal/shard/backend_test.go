package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
)

// pinnedCache is the cache configuration of the cached backend tests: big
// enough that the workloads under test evict nothing.
var pinnedCache = &access.CacheConfig{PageSize: 16, Pages: 128}

// backendStack partitions db into p shards and fronts each with simulated
// subsystems: shard 0 is the expensive straggler (its accesses cost
// stragglerCS/stragglerCR), the rest are unit-cost. With a non-nil cache
// configuration every shard also gets a shared page cache.
func backendStack(t *testing.T, db *model.Database, p int, stragglerCS, stragglerCR float64, cache *access.CacheConfig) (*shard.Engine, []*access.Cache) {
	t.Helper()
	dbs, err := db.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]shard.ShardBackend, len(dbs))
	caches := make([]*access.Cache, len(dbs))
	for s, sdb := range dbs {
		cm := access.UnitCosts
		if s == 0 {
			cm = access.CostModel{CS: stragglerCS, CR: stragglerCR}
		}
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = access.NewGradedSubsystem(fmt.Sprintf("s%d-l%d", s, i), sdb.List(i), 8).WithCosts(cm)
		}
		sb := shard.ShardBackend{DB: sdb, Lists: lists}
		if cache != nil {
			c := access.NewCache(*cache)
			sb.Lists = access.WrapLists(c, lists)
			sb.Cache = c
			caches[s] = c
		}
		shards[s] = sb
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		t.Fatal(err)
	}
	return eng, caches
}

// TestFromBackendsValidation pins the constructor's shape checks.
func TestFromBackendsValidation(t *testing.T) {
	db := workloadsUnderTest(t, 3)["uniform"]
	dbs, err := db.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	lists := func(sdb *model.Database) []access.ListSource {
		out := make([]access.ListSource, sdb.M())
		for i := range out {
			out[i] = sdb.List(i)
		}
		return out
	}
	// An odd-sized database partitions into shards of different sizes, so
	// swapping their lists is a detectable shape error.
	b := model.NewBuilder(3)
	for i := 0; i < 5; i++ {
		b.MustAdd(model.ObjectID(1000+i), 0.1, 0.2, 0.3)
	}
	odd, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	odds, err := odd.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	// Two shards that share one object in the middle of their ranges, and
	// a third, disjoint one between them.
	build := func(ids ...model.ObjectID) *model.Database {
		b := model.NewBuilder(3)
		for _, id := range ids {
			b.MustAdd(id, 0.1, 0.2, 0.3)
		}
		sdb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sdb
	}
	shared := []shard.ShardBackend{{DB: build(0, 3, 6, 9, 12)}, {DB: build(1, 4, 7, 10)}, {DB: build(2, 5, 6, 8, 11)}}
	cases := map[string][]shard.ShardBackend{
		"nil DB":            {{DB: nil}},
		"short lists":       {{DB: dbs[0], Lists: lists(dbs[0])[:1]}, {DB: dbs[1]}},
		"nil list":          {{DB: dbs[0], Lists: make([]access.ListSource, dbs[0].M())}, {DB: dbs[1]}},
		"wrong-size list":   {{DB: odds[0], Lists: lists(odds[1])}, {DB: odds[1]}},
		"duplicate objects": {{DB: dbs[0]}, {DB: dbs[0]}},
		"one shared object": shared,
		"empty":             {},
	}
	for name, bs := range cases {
		if _, err := shard.FromBackends(bs); !errors.Is(err, core.ErrBadQuery) {
			t.Errorf("%s: FromBackends returned %v, want an ErrBadQuery", name, err)
		}
	}
	if _, err := shard.FromBackends(shared); err == nil || !strings.Contains(err.Error(), "object 6 appears in shards 0 and 2") {
		t.Errorf("shared object: error %v, want one naming object 6 and shards 0 and 2", err)
	}
	if _, err := shard.FromBackends([]shard.ShardBackend{{DB: dbs[0], Lists: lists(dbs[0])}, {DB: dbs[1]}}); err != nil {
		t.Fatalf("valid backend set rejected: %v", err)
	}
}

// TestBackendEngineMatchesDirect checks that putting subsystems with cost
// models in front of the shards changes accounting, never answers: the
// backend engine's results are item-for-item the direct engine's, and its
// charged costs equal counts priced per backend.
func TestBackendEngineMatchesDirect(t *testing.T) {
	for name, db := range workloadsUnderTest(t, 3) {
		const p, k = 3, 7
		if db.N() < 2*p {
			continue
		}
		tf := agg.Avg(3)
		direct, err := shard.New(db, p)
		if err != nil {
			t.Fatal(err)
		}
		backed, _ := backendStack(t, db, p, 5, 20, nil)
		for _, opts := range []shard.Options{{}, {NoRandomAccess: true}} {
			label := fmt.Sprintf("%s nra=%v", name, opts.NoRandomAccess)
			// Workers 1 keeps worker interleaving — and therefore Stats —
			// deterministic so the two runs are comparable access for access.
			opts.Workers = 1
			want, err := direct.Query(tf, k, opts)
			if err != nil {
				t.Fatalf("%s: direct: %v", label, err)
			}
			got, err := backed.Query(tf, k, opts)
			if err != nil {
				t.Fatalf("%s: backed: %v", label, err)
			}
			assertItemsEqual(t, label, got.Items, want.Items)
			if got.Stats.Sorted != want.Stats.Sorted || got.Stats.Random != want.Stats.Random {
				t.Fatalf("%s: logical accounting diverged: %+v vs %+v", label, got.Stats, want.Stats)
			}
			// The direct engine's lists are plain (unit costs): charged
			// equals counts there; the backend engine charges shard 0 at
			// 5/20.
			if want.Stats.Charged() != float64(want.Stats.Accesses()) {
				t.Fatalf("%s: direct charged %g, want %d", label, want.Stats.Charged(), want.Stats.Accesses())
			}
			if got.Stats.Charged() <= want.Stats.Charged() {
				t.Fatalf("%s: backend charged %g, want more than unit %g", label, got.Stats.Charged(), want.Stats.Charged())
			}
		}
	}
}

// TestCostAwareSchedule checks the straggler-aware scheduler: identical
// tie-safe answers, and on a skewed backend set a charged cost no worse
// than the wave scheduler's. Workers is 1 so both runs are deterministic
// and the comparison cannot flake on goroutine interleaving.
func TestCostAwareSchedule(t *testing.T) {
	for name, db := range workloadsUnderTest(t, 3) {
		const p, k = 4, 7
		if db.N() < 2*p {
			continue
		}
		tf := agg.Avg(3)
		seq, err := (&core.NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
		if err != nil {
			t.Fatal(err)
		}
		want := core.TrueGradeMultiset(db, tf, seq.Items)
		var charged [2]float64
		for i, sched := range []shard.Schedule{shard.ScheduleWave, shard.ScheduleCostAware} {
			eng, _ := backendStack(t, db, p, 10, 10, nil)
			res, err := eng.Query(tf, k, shard.Options{
				NoRandomAccess: true, Workers: 1, Schedule: sched,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sched, err)
			}
			got := core.TrueGradeMultiset(db, tf, res.Items)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s/%s: grade multiset diverged at %d: %v vs %v", name, sched, j, got, want)
				}
			}
			if res.Stats.Random != 0 {
				t.Fatalf("%s/%s: NRA mode made random accesses", name, sched)
			}
			charged[i] = res.Stats.Charged()
		}
		if charged[1] > charged[0] {
			t.Errorf("%s: cost-aware charged %g, wave charged %g — the straggler-aware schedule must not cost more", name, charged[1], charged[0])
		}
	}
}

// TestScheduleValidation pins the option checks: schedules apply only to
// the no-random-access mode, and unknown names are rejected.
func TestScheduleValidation(t *testing.T) {
	db := workloadsUnderTest(t, 3)["uniform"]
	eng, err := shard.New(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	tf := agg.Avg(3)
	if _, err := eng.Query(tf, 3, shard.Options{Schedule: shard.ScheduleCostAware}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("TA-mode schedule: err = %v, want ErrBadQuery", err)
	}
	if _, err := eng.Query(tf, 3, shard.Options{NoRandomAccess: true, Schedule: "fifo"}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("unknown schedule: err = %v, want ErrBadQuery", err)
	}
	if _, err := eng.Query(tf, 3, shard.Options{NoRandomAccess: true, Schedule: shard.ScheduleCostAware}); err != nil {
		t.Fatalf("cost-aware NRA query failed: %v", err)
	}
}

// TestOnShardStats checks the per-shard observability hook: stats arrive
// once per shard, sum to the result's accounting, and record observed
// wall-clock.
func TestOnShardStats(t *testing.T) {
	db := workloadsUnderTest(t, 3)["zipf"]
	const p, k = 3, 5
	tf := agg.Min(3)
	for _, nra := range []bool{false, true} {
		eng, err := shard.New(db, p)
		if err != nil {
			t.Fatal(err)
		}
		var per []shard.ShardStat
		res, err := eng.Query(tf, k, shard.Options{
			NoRandomAccess: nra,
			OnShardStats:   func(ss []shard.ShardStat) { per = ss },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(per) != p {
			t.Fatalf("nra=%v: got %d shard stats, want %d", nra, len(per), p)
		}
		var sorted int64
		for s, st := range per {
			sorted += st.Stats.Sorted
			if st.Elapsed <= 0 {
				t.Fatalf("nra=%v: shard %d observed no wall-clock", nra, s)
			}
			if !nra && st.Resumes != 0 {
				t.Fatalf("TA mode reported %d resumes for shard %d", st.Resumes, s)
			}
		}
		if sorted != res.Stats.Sorted {
			t.Fatalf("nra=%v: per-shard sorted sums to %d, result says %d", nra, sorted, res.Stats.Sorted)
		}
	}
}

// churnCache is a cache configuration so small that, under the workloads
// under test, memo evictions, hot-tier demotions, admission rejects, cold
// evictions and free-list page reuse all run.
var churnCache = &access.CacheConfig{PageSize: 2, Pages: 2, ColdPages: 2, Memo: 8}

// TestCachedShardsConcurrent is the -race correctness pin from the issue:
// many goroutines issue sharded queries over one shared cached engine, and
// every answer must carry the same tie-safe true-grade multiset as the
// uncached sequential engines — on the tie-heavy workloads where a buggy
// cache (serving the wrong entry, racing a fill) would surface as a wrong
// answer, not just wrong accounting. It runs twice: over the pinned cache,
// which holds everything and so serves hits, and over the churning one,
// whose every eviction path runs concurrently.
func TestCachedShardsConcurrent(t *testing.T) {
	dbs := workloadsUnderTest(t, 3)
	for _, cfg := range []*access.CacheConfig{pinnedCache, churnCache} {
		for _, name := range []string{"zipf", "plateau", "tiny-ties"} {
			db := dbs[name]
			const p, k = 3, 5
			if db.N() < 2*p {
				continue
			}
			tf := agg.Min(3)
			seqTA, err := (&core.TA{}).Run(access.New(db, access.AllowAll), tf, k)
			if err != nil {
				t.Fatal(err)
			}
			wantTA := core.TrueGradeMultiset(db, tf, seqTA.Items)
			seqNRA, err := (&core.NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
			if err != nil {
				t.Fatal(err)
			}
			wantNRA := core.TrueGradeMultiset(db, tf, seqNRA.Items)

			eng, caches := backendStack(t, db, p, 4, 4, cfg)
			const goroutines, rounds = 8, 4
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						nra := (g+r)%2 == 1
						res, err := eng.Query(tf, k, shard.Options{NoRandomAccess: nra})
						if err != nil {
							t.Errorf("%s %+v: goroutine %d round %d: %v", name, *cfg, g, r, err)
							return
						}
						want := wantTA
						if nra {
							want = wantNRA
						}
						got := core.TrueGradeMultiset(db, tf, res.Items)
						for j := range want {
							if got[j] != want[j] {
								t.Errorf("%s %+v: goroutine %d round %d (nra=%v): grades %v, want %v", name, *cfg, g, r, nra, got, want)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			var sum access.CacheStats
			for _, c := range caches {
				st := c.Stats()
				sum.Hits += st.Hits
				sum.Misses += st.Misses
				sum.ProbeHits += st.ProbeHits
				sum.ProbeMisses += st.ProbeMisses
				sum.HotEvictions += st.HotEvictions
				sum.ColdEvictions += st.ColdEvictions
				sum.AdmissionRejects += st.AdmissionRejects
				sum.Evictions += st.Evictions
			}
			t.Logf("%s %+v: %+v across %d queries", name, *cfg, sum, goroutines*rounds)
			switch {
			case cfg == pinnedCache && sum.Hits == 0:
				t.Fatalf("%s: %d concurrent queries over one cached engine produced no cache hits", name, goroutines*rounds)
			case cfg == churnCache && (sum.ColdEvictions == 0 || sum.AdmissionRejects == 0 || sum.ProbeMisses <= int64(p*cfg.Memo)):
				t.Fatalf("%s: %d concurrent queries left an eviction path idle: %+v", name, goroutines*rounds, sum)
			}
		}
	}
}

// TestCachedPhysicalNeverExceedsUncached compares a cached and an uncached
// engine over the same deterministic query sequence (Workers 1): answers
// and logical accounting are identical, and the cached engine's physical
// accesses — cache misses plus memo misses — never exceed the uncached
// engine's.
func TestCachedPhysicalNeverExceedsUncached(t *testing.T) {
	for name, db := range workloadsUnderTest(t, 3) {
		const p, k = 3, 5
		if db.N() < 2*p {
			continue
		}
		tf := agg.Avg(3)
		uncached, _ := backendStack(t, db, p, 2, 6, nil)
		cached, caches := backendStack(t, db, p, 2, 6, pinnedCache)
		var logical, charged float64
		for rep := 0; rep < 3; rep++ {
			for _, nra := range []bool{false, true} {
				opts := shard.Options{Workers: 1, NoRandomAccess: nra}
				want, err := uncached.Query(tf, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.Query(tf, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertItemsEqual(t, fmt.Sprintf("%s rep=%d nra=%v", name, rep, nra), got.Items, want.Items)
				if got.Stats.Sorted != want.Stats.Sorted || got.Stats.Random != want.Stats.Random {
					t.Fatalf("%s rep=%d nra=%v: logical accounting diverged: %+v vs %+v", name, rep, nra, got.Stats, want.Stats)
				}
				logical += float64(want.Stats.Accesses())
				charged += want.Stats.Charged()
				if got.Stats.Charged() > want.Stats.Charged() {
					t.Fatalf("%s rep=%d nra=%v: cached run charged %g, uncached %g", name, rep, nra, got.Stats.Charged(), want.Stats.Charged())
				}
			}
		}
		var physical int64
		for _, c := range caches {
			st := c.Stats()
			physical += st.Misses + st.ProbeMisses
		}
		if float64(physical) > logical {
			t.Fatalf("%s: cached engine passed %d physical accesses to the backends; uncached runs performed %g", name, physical, logical)
		}
	}
}
