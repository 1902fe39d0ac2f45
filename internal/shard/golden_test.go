package shard_test

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Golden sharded records: every query of a fixed matrix — three databases
// on three seeds, min/avg/sum, k ∈ {5, 20, 50}, P ∈ {1, 2, 4, 8} — run with
// one worker so the scheduling order, and with it every access count, is
// deterministic. Two records share the matrix: the no-random-access mode
// under the wave and cost-aware schedules (testdata/golden), and the TA
// mode as plain TA and as cost-aware TA at cR/cS = 4 (testdata/golden-ta).
// A rewrite of the coordinator or of the per-query run loop must leave
// every answer, access count, round count and per-shard resume count
// byte-identical. The adaptive schedule is left out: it prices shards from
// observed wall-clock time. MaxBuffered is left out too: it reports the
// coordinator's own buffer size, which is a property of the coordinator's
// data structure rather than of the answer. To regenerate after an
// intended behaviour change, delete the record's directory and run its
// test twice: the first run writes the files and fails, the second
// compares; docs/GOLDEN-CHANGES.md lists each regeneration with what it
// moved.

const (
	shardGoldenDir   = "testdata/golden"
	shardGoldenTADir = "testdata/golden-ta"
)

// shardGoldenDBs are the databases of the record: uniform and Zipf(1.2) at
// N = 20 000 and an 8-level plateau at N = 2 000, m = 3, on one seed.
func shardGoldenDBs(t *testing.T, seed int64) []struct {
	name string
	db   *model.Database
} {
	t.Helper()
	uniform, err := workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.Zipf(workload.Spec{N: 20000, M: 3, Seed: seed}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	plateau, err := workload.Plateau(workload.Spec{N: 2000, M: 3, Seed: seed}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		db   *model.Database
	}{{"uniform", uniform}, {"zipf", zipf}, {"plateau", plateau}}
}

// shardGoldenRun renders one query: answer intervals, exactness, rounds,
// the summed sorted accesses, and each shard's sorted accesses and resumes.
func shardGoldenRun(eng *shard.Engine, tf agg.Func, k int, sched shard.Schedule) string {
	var per []shard.ShardStat
	res, err := eng.Query(tf, k, shard.Options{
		NoRandomAccess: true,
		Schedule:       sched,
		Workers:        1,
		OnShardStats:   func(st []shard.ShardStat) { per = st },
	})
	if err != nil {
		return fmt.Sprintf("err: %v\n", err)
	}
	var b strings.Builder
	b.WriteString("items:")
	for _, it := range res.Items {
		fmt.Fprintf(&b, " %d[%v,%v]", it.Object, it.Lower, it.Upper)
	}
	fmt.Fprintf(&b, "\nexact: %v rounds: %d sorted: %d\nshards:", res.GradesExact, res.Rounds, res.Stats.Sorted)
	for _, st := range per {
		fmt.Fprintf(&b, " %d/%d", st.Stats.Sorted, st.Resumes)
	}
	b.WriteString("\n")
	return b.String()
}

// TestGoldenShardedNRA runs the matrix, one golden file per database and
// seed, and compares each with the committed record.
func TestGoldenShardedNRA(t *testing.T) {
	const m = 3
	for _, seed := range []int64{42, 123, 456} {
		for _, d := range shardGoldenDBs(t, seed) {
			name := fmt.Sprintf("%s-seed%d", d.name, seed)
			t.Run(name, func(t *testing.T) {
				var b strings.Builder
				for _, p := range []int{1, 2, 4, 8} {
					eng, err := shard.New(d.db, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, tf := range []agg.Func{agg.Min(m), agg.Avg(m), agg.Sum(m)} {
						for _, k := range []int{5, 20, 50} {
							for _, sched := range []shard.Schedule{shard.ScheduleWave, shard.ScheduleCostAware} {
								fmt.Fprintf(&b, "== P=%d %s k=%d %s\n", p, tf.Name(), k, sched)
								b.WriteString(shardGoldenRun(eng, tf, k, sched))
							}
						}
					}
				}
				compareGolden(t, shardGoldenDir, name, b.String())
			})
		}
	}
}

// shardGoldenTARun renders one TA-mode query: the answer with its grades,
// rounds, the summed sorted and random accesses, and each shard's sorted
// and random accesses. An exact answer's grades must also equal best, the
// k largest grades of the database (Naive's top-k grade multiset), so a
// record that swaps objects tied at the k-th grade cannot hide a wrong one.
func shardGoldenTARun(t *testing.T, eng *shard.Engine, tf agg.Func, k int, costAware bool, best []model.Grade) string {
	t.Helper()
	var per []shard.ShardStat
	opts := shard.Options{
		Workers:      1,
		OnShardStats: func(st []shard.ShardStat) { per = st },
	}
	if costAware {
		opts.CostAwareTA = true
		opts.Costs = access.CostModel{CS: 1, CR: 4}
	}
	res, err := eng.Query(tf, k, opts)
	if err != nil {
		return fmt.Sprintf("err: %v\n", err)
	}
	if res.GradesExact {
		got := make([]model.Grade, len(res.Items))
		for i, it := range res.Items {
			got[i] = it.Grade
		}
		slices.SortFunc(got, func(a, b model.Grade) int { return cmp.Compare(b, a) })
		if !slices.Equal(got, best[:min(k, len(best))]) {
			t.Errorf("%s k=%d cost-aware=%v: grades %v, Naive's top-k %v", tf.Name(), k, costAware, got, best[:min(k, len(best))])
		}
	}
	var b strings.Builder
	b.WriteString("items:")
	for _, it := range res.Items {
		fmt.Fprintf(&b, " %d:%v", it.Object, it.Grade)
	}
	fmt.Fprintf(&b, "\nrounds: %d sorted: %d random: %d\nshards:", res.Rounds, res.Stats.Sorted, res.Stats.Random)
	for _, st := range per {
		fmt.Fprintf(&b, " %d/%d", st.Stats.Sorted, st.Stats.Random)
	}
	b.WriteString("\n")
	return b.String()
}

// TestGoldenShardedTA runs the matrix in the TA mode, plain TA and
// cost-aware TA (h = 4), one golden file per database and seed, and
// compares each with the committed record. Every exact answer's grades are
// also checked against Naive's top-k grade multiset.
func TestGoldenShardedTA(t *testing.T) {
	const m = 3
	for _, seed := range []int64{42, 123, 456} {
		for _, d := range shardGoldenDBs(t, seed) {
			name := fmt.Sprintf("%s-seed%d", d.name, seed)
			t.Run(name, func(t *testing.T) {
				var b strings.Builder
				for _, p := range []int{1, 2, 4, 8} {
					eng, err := shard.New(d.db, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, tf := range []agg.Func{agg.Min(m), agg.Avg(m), agg.Sum(m)} {
						best := naiveTopGrades(t, d.db, tf, 50)
						for _, k := range []int{5, 20, 50} {
							for _, costAware := range []bool{false, true} {
								alg := "ta"
								if costAware {
									alg = "cost-aware-ta"
								}
								fmt.Fprintf(&b, "== P=%d %s k=%d %s\n", p, tf.Name(), k, alg)
								b.WriteString(shardGoldenTARun(t, eng, tf, k, costAware, best))
							}
						}
					}
				}
				compareGolden(t, shardGoldenTADir, name, b.String())
			})
		}
	}
}

// naiveTopGrades returns the k largest overall grades of db under tf,
// largest first, as Naive computes them.
func naiveTopGrades(t *testing.T, db *model.Database, tf agg.Func, k int) []model.Grade {
	t.Helper()
	res, err := core.Naive{}.Run(access.New(db, access.AllowAll), tf, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]model.Grade, len(res.Items))
	for i, it := range res.Items {
		out[i] = it.Grade
	}
	return out
}

// shardGoldenCachedDir holds the cached-stack record: one file per seed.
const shardGoldenCachedDir = "testdata/golden-cached"

// goldenCachedEngine partitions a Zipf(1.2) database (N = 5 000, m = 3)
// into 4 shards and fronts every list with Remote (cS 1, cR 4), then a
// seeded Faulty at rate 0.002, then one small tiered cache per shard whose
// hot tier, cold tier and memo all overflow within the record's queries.
func goldenCachedEngine(t *testing.T, seed int64) *shard.Engine {
	t.Helper()
	db, err := workload.Zipf(workload.Spec{N: 5000, M: 3, Seed: seed}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	dbs, err := db.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		c := access.NewCache(access.CacheConfig{PageSize: 8, Pages: 32, ColdPages: 64, Memo: 1024})
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			remote := access.NewRemote(sdb.List(i), access.CostModel{CS: 1, CR: 4}, access.Latency{})
			plan := access.FaultPlan{Seed: uint64(seed)*64 + uint64(s*sdb.M()+i), Rate: 0.002}
			lists[i] = c.Wrap(i, access.NewFaulty(remote, plan))
		}
		shards[s] = shard.ShardBackend{DB: sdb, Lists: lists, Cache: c}
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGoldenCachedStack pins the shared cache under a sharded engine: 44
// queries at Workers 1 on one engine per seed (four rounds of TA at
// k ∈ {5, 10, 20} under avg, min and sum, then cost-aware TA at k = 50
// avg and k = 100 sum), each rendered as its sorted, random and charged
// cost, faults and retries, followed by every shard's full CacheStats.
// Hot hits, cold hits, misses, probe hits and misses, demotions, cold
// evictions and admission rejects all occur, so the record fixes the LRU
// order of both the page tiers and the probe memo, the admission
// filter's decisions and every charged cost.
func TestGoldenCachedStack(t *testing.T) {
	const m = 3
	for _, seed := range []int64{42, 123, 456} {
		name := fmt.Sprintf("zipf-seed%d", seed)
		t.Run(name, func(t *testing.T) {
			eng := goldenCachedEngine(t, seed)
			var b strings.Builder
			run := func(label string, tf agg.Func, k int, opts shard.Options) {
				opts.Workers = 1
				fmt.Fprintf(&b, "== %s %s k=%d\n", label, tf.Name(), k)
				res, err := eng.Query(tf, k, opts)
				if err != nil {
					fmt.Fprintf(&b, "err: %v\n", err)
					return
				}
				st := res.Stats
				fmt.Fprintf(&b, "sorted: %d random: %d charged: %v faults: %d retries: %d\n",
					st.Sorted, st.Random, st.Charged(), st.Faults, st.Retries)
			}
			for round := 0; round < 4; round++ {
				for _, tf := range []agg.Func{agg.Avg(m), agg.Min(m), agg.Sum(m)} {
					for _, k := range []int{5, 10, 20} {
						run("ta", tf, k, shard.Options{})
					}
				}
				run("cost-aware-ta", agg.Avg(m), 50, shard.Options{CostAwareTA: true})
				run("cost-aware-ta", agg.Sum(m), 100, shard.Options{CostAwareTA: true})
			}
			for s, cs := range eng.CacheStats() {
				fmt.Fprintf(&b, "cache %d: %+v\n", s, cs)
			}
			compareGolden(t, shardGoldenCachedDir, name, b.String())
		})
	}
}

// compareGolden compares got with the golden file name.txt in dir, writing
// the file (and failing) when it is missing.
func compareGolden(t *testing.T, dir, name, got string) {
	t.Helper()
	path := filepath.Join(dir, name+".txt")
	want, rerr := os.ReadFile(path)
	if os.IsNotExist(rerr) {
		if werr := os.MkdirAll(dir, 0o755); werr != nil {
			t.Fatal(werr)
		}
		if werr := os.WriteFile(path, []byte(got), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Fatalf("wrote missing golden file %s; rerun to compare", path)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden record\n%s", path, firstLineDiff(string(want), got))
	}
}

// firstLineDiff names the first differing line of two records together
// with the run header above it.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("%s\nline %d:\nwant %s\ngot  %s", header, i+1, w, g)
		}
		if strings.HasPrefix(w, "== ") {
			header = w
		}
	}
	return "records differ"
}
