// Benchmarks: one testing.B benchmark per reproduction experiment
// (E01–E17; docs/EXPERIMENTS.md catalogs the experiments), plus the
// guarded engine benchmarks (sharded modes, shared scan, backend stack,
// cost-adaptive planning) and micro-benchmarks of the core algorithms.
// Each experiment benchmark reports the paper's headline metric for that
// artifact as custom b.ReportMetric values, so `go test -bench=.` both
// times the code and regenerates the numbers.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/adversary"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/traffic/stats"
	"repro/internal/workload"
)

// seedDBs builds one workload database per statistical seed (stats.Seeds:
// 42, 123, 456). The first seed's database drives the timed loops; all of
// them feed the multi-seed metric summaries the guarded floors are checked
// against.
func seedDBs(b *testing.B, build func(seed int64) (*repro.Database, error)) map[int64]*repro.Database {
	b.Helper()
	out := make(map[int64]*repro.Database, len(stats.Seeds))
	for _, seed := range stats.Seeds {
		db, err := build(seed)
		if err != nil {
			b.Fatal(err)
		}
		out[seed] = db
	}
	return out
}

// timedDB selects the database whose workload the timed loop runs on: the
// first seed of the statistical matrix.
func timedDB(dbs map[int64]*repro.Database) *repro.Database { return dbs[stats.Seeds[0]] }

// reportSeeds reports a multi-seed summary as benchmark metrics: the mean
// under the plain metric name (so dashboards tracking the historical key
// keep working), the directional extremes under -min/-max (the keys
// scripts/bench.sh gates floors and ceilings on), and every per-seed value
// under -s<seed>.
func reportSeeds(b *testing.B, s stats.Summary) {
	b.Helper()
	b.ReportMetric(s.Mean(), s.Name)
	b.ReportMetric(s.Min(), s.Name+"-min")
	b.ReportMetric(s.Max(), s.Name+"-max")
	for _, sm := range s.Samples {
		b.ReportMetric(sm.Value, fmt.Sprintf("%s-s%d", s.Name, sm.Seed))
	}
}

// bestOfThree times fn three times and returns the fastest run — the
// untimed baseline protocol shared by the sharded benchmarks.
func bestOfThree(b *testing.B, fn func() error) time.Duration {
	b.Helper()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// interleavedRatios is the comparison protocol for a timed ratio: it calls
// base and then each variant once as a warm-up, then times them in rounds
// — base, then the variants in order — and returns, per variant, each
// round's variant time over the base time of the same round. Drift or
// steal on the host then lands on both sides of a ratio alike instead of
// on whichever side ran last.
func interleavedRatios(b *testing.B, rounds int, base func() error, variants ...func() error) [][]float64 {
	b.Helper()
	timed := func(fn func() error) float64 {
		t0 := time.Now()
		if err := fn(); err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(t0))
	}
	timed(base)
	for _, v := range variants {
		timed(v)
	}
	ratios := make([][]float64, len(variants))
	for r := 0; r < rounds; r++ {
		t := timed(base)
		for i, v := range variants {
			ratios[i] = append(ratios[i], timed(v)/t)
		}
	}
	return ratios
}

// seedRatios summarizes an interleaved ratio over the statistical seeds:
// each seed's median round ratio, reported by reportSeeds, and its
// interquartile range, reported as <name>-iqr-s<seed>.
type seedRatios struct{ median, iqr stats.Summary }

func newSeedRatios(name string) *seedRatios {
	return &seedRatios{median: stats.Summary{Name: name}, iqr: stats.Summary{Name: name + "-iqr"}}
}

// add records one seed's round ratios.
func (r *seedRatios) add(seed int64, ratios []float64) {
	r.median.Samples = append(r.median.Samples, stats.Sample{Seed: seed, Value: quartile(ratios, 2)})
	r.iqr.Samples = append(r.iqr.Samples, stats.Sample{Seed: seed, Value: quartile(ratios, 3) - quartile(ratios, 1)})
}

func (r *seedRatios) report(b *testing.B) {
	b.Helper()
	reportSeeds(b, r.median)
	for _, sm := range r.iqr.Samples {
		b.ReportMetric(sm.Value, fmt.Sprintf("%s-s%d", r.iqr.Name, sm.Seed))
	}
}

func mustRun(b *testing.B, al core.Algorithm, src *access.Source, t agg.Func, k int) *core.Result {
	b.Helper()
	res, err := al.Run(src, t, k)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE01Figure1 — Example 6.3: TA vs the wild-guess oracle.
func BenchmarkE01Figure1(b *testing.B) {
	in := adversary.Figure1(1000)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, in.Source(), in.Agg, in.K)
		opp := mustRun(b, in.Opponent, in.Source(), in.Agg, in.K)
		ratio = float64(ta.Stats.Accesses()) / float64(opp.Stats.Accesses())
	}
	b.ReportMetric(ratio, "TA/oracle")
}

// BenchmarkE02Figure2 — Example 6.8: TAθ on the distinctness database.
func BenchmarkE02Figure2(b *testing.B) {
	in := adversary.Figure2(1000, 2)
	var rounds float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, &core.TA{Theta: 2}, in.Source(), in.Agg, in.K)
		rounds = float64(res.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

// BenchmarkE03Figure3 — Example 7.3: TAz full scan vs 3-access proof.
func BenchmarkE03Figure3(b *testing.B) {
	in := adversary.Figure3(1000)
	var accesses float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, &core.TA{}, in.Source(), in.Agg, in.K)
		accesses = float64(res.Stats.Accesses())
	}
	b.ReportMetric(accesses, "TAz-accesses")
}

// BenchmarkE04Figure4 — Example 8.3: NRA halts at depth 2 for k=1.
func BenchmarkE04Figure4(b *testing.B) {
	in := adversary.Figure4(1000)
	var rounds float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, &core.NRA{}, in.Source(), in.Agg, in.K)
		rounds = float64(res.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

// BenchmarkE05Figure5 — Section 8.4: CA vs Intermittent cost ratio.
func BenchmarkE05Figure5(b *testing.B) {
	const h = 20
	in := adversary.Figure5(h)
	cm := access.CostModel{CS: 1, CR: h}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ca := mustRun(b, &core.CA{H: h}, in.Source(), in.Agg, in.K)
		im := mustRun(b, &core.Intermittent{H: h}, in.Source(), in.Agg, in.K)
		ratio = cm.Cost(im.Stats) / cm.Cost(ca.Stats)
	}
	b.ReportMetric(ratio, "Interm/CA")
}

// BenchmarkE06Theorem91 — TA's optimality ratio on the Theorem 9.1 family.
func BenchmarkE06Theorem91(b *testing.B) {
	const m, d = 3, 256
	in := adversary.Theorem91(m, d)
	cm := access.CostModel{CS: 1, CR: 4}
	bound := float64(m) + float64(m*(m-1))*4
	var ratio float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, in.Source(), in.Agg, in.K)
		opp := mustRun(b, in.Opponent, in.Source(), in.Agg, in.K)
		ratio = cm.Cost(ta.Stats) / cm.Cost(opp.Stats)
	}
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(bound, "bound")
}

// BenchmarkE07Theorem92 — worst-case CA ratio on the MinPlus family.
func BenchmarkE07Theorem92(b *testing.B) {
	const m, d, n, rho = 4, 16, 256, 8
	cm := access.CostModel{CS: 1, CR: rho}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for tIdx := 1; tIdx <= d; tIdx += 4 {
			in := adversary.Theorem92(m, d, n, tIdx)
			ca := mustRun(b, &core.CA{H: rho}, in.Source(), in.Agg, in.K)
			opp := mustRun(b, in.Opponent, in.Source(), in.Agg, in.K)
			if r := cm.Cost(ca.Stats) / cm.Cost(opp.Stats); r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst-CA-ratio")
}

// BenchmarkE08Theorem95 — NRA's ratio m on the Theorem 9.5 family.
func BenchmarkE08Theorem95(b *testing.B) {
	const m = 3
	in := adversary.Theorem95(m, 96*m)
	var ratio float64
	for i := 0; i < b.N; i++ {
		nra := mustRun(b, &core.NRA{}, in.Source(), in.Agg, in.K)
		opp := mustRun(b, in.Opponent, in.Source(), in.Agg, in.K)
		ratio = float64(nra.Stats.Sorted) / float64(opp.Stats.Sorted)
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkE09CABounded — CA flat vs TA growing as cR/cS rises.
func BenchmarkE09CABounded(b *testing.B) {
	m, d := 3, 6
	n := 1 + (d - 1) + (m-1)*(d*m-1) + d*(m-1) + 200
	in := adversary.Theorem94(m, d, n)
	cm := access.CostModel{CS: 1, CR: 64}
	var caCost, taCost float64
	for i := 0; i < b.N; i++ {
		ca := mustRun(b, &core.CA{H: 64}, in.Source(), in.Agg, in.K)
		ta := mustRun(b, &core.TA{}, in.Source(), in.Agg, in.K)
		caCost, taCost = cm.Cost(ca.Stats), cm.Cost(ta.Stats)
	}
	b.ReportMetric(caCost, "CA-cost")
	b.ReportMetric(taCost, "TA-cost")
}

// BenchmarkE10FAScaling — FA on independent uniform lists.
func BenchmarkE10FAScaling(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 16000, M: 3, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	var cost float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, core.FA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		cost = float64(res.Stats.Accesses())
	}
	b.ReportMetric(cost, "accesses")
}

// BenchmarkE11TAvsFADepth — TA halts no later than FA.
func BenchmarkE11TAvsFADepth(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 10000, M: 3, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	var taDepth, faDepth float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Avg(3), 5)
		fa := mustRun(b, core.FA{}, access.New(db, access.AllowAll), agg.Avg(3), 5)
		taDepth, faDepth = float64(ta.Stats.Depth()), float64(fa.Stats.Depth())
	}
	b.ReportMetric(taDepth, "TA-depth")
	b.ReportMetric(faDepth, "FA-depth")
}

// BenchmarkE12Workloads — TA vs FA on correlated data.
func BenchmarkE12Workloads(b *testing.B) {
	db, err := workload.Correlated(workload.Spec{N: 20000, M: 3, Seed: 12}, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	cm := access.CostModel{CS: 1, CR: 2}
	var gap float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		fa := mustRun(b, core.FA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		gap = cm.Cost(fa.Stats) / cm.Cost(ta.Stats)
	}
	b.ReportMetric(gap, "FA/TA")
}

// BenchmarkE13Buffers — TA's bounded buffer vs FA's growing one.
func BenchmarkE13Buffers(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	var taBuf, faBuf float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		fa := mustRun(b, core.FA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		taBuf, faBuf = float64(ta.Stats.MaxBuffered), float64(fa.Stats.MaxBuffered)
	}
	b.ReportMetric(taBuf, "TA-buffer")
	b.ReportMetric(faBuf, "FA-buffer")
}

// BenchmarkE14Approximation — TAθ cost reduction at θ=1.25.
func BenchmarkE14Approximation(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	var exact, approx float64
	for i := 0; i < b.N; i++ {
		e := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		a := mustRun(b, &core.TA{Theta: 1.25}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		exact, approx = float64(e.Stats.Accesses()), float64(a.Stats.Accesses())
	}
	b.ReportMetric(exact, "exact-accesses")
	b.ReportMetric(approx, "approx-accesses")
}

// BenchmarkE15CAvsTA — cost crossover at cR/cS = 32.
func BenchmarkE15CAvsTA(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: 15})
	if err != nil {
		b.Fatal(err)
	}
	cm := access.CostModel{CS: 1, CR: 32}
	var taCost, caCost float64
	for i := 0; i < b.N; i++ {
		ta := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		ca := mustRun(b, &core.CA{Costs: cm}, access.New(db, access.AllowAll), agg.Avg(3), 10)
		taCost, caCost = cm.Cost(ta.Stats), cm.Cost(ca.Stats)
	}
	b.ReportMetric(taCost, "TA-cost")
	b.ReportMetric(caCost, "CA-cost")
}

// BenchmarkE16NRABookkeeping — rescan vs lazy engines (the ablation), and
// the lazy engine's bookkeeping on its hardest case: CA under min at
// cR/cS = 4 on uniform N = 50 000, k = 10, where thousands of objects seen
// in one list wait as candidates. CA-min reports bound recomputes per
// sorted access on every statistical seed and fails above 4 on any (one
// heap keyed by stale B cost 150–200, per-list FIFOs beside a refreshing
// heap 7–10; groups ordered by K measure 3.1–3.2, and 4 is that maximum
// plus 25%).
func BenchmarkE16NRABookkeeping(b *testing.B) {
	db, err := workload.IndependentUniform(workload.Spec{N: 10000, M: 3, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []core.Engine{core.RescanEngine, core.LazyEngine} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) {
			var recomputes float64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, &core.NRA{Engine: engine},
					access.New(db, access.Policy{NoRandom: true}), agg.Avg(3), 10)
				recomputes = float64(res.Stats.BoundRecomputes)
			}
			b.ReportMetric(recomputes, "recomputes")
		})
	}
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: seed})
	})
	ca := func() core.Algorithm { return &core.CA{Costs: access.CostModel{CS: 1, CR: 4}} }
	b.Run("CA-min", func(b *testing.B) {
		per := stats.Summary{Name: "ca-min-recomputes-per-sorted"}
		for _, seed := range stats.Seeds {
			res := mustRun(b, ca(), access.New(dbs[seed], access.AllowAll), agg.Min(3), 10)
			v := float64(res.Stats.BoundRecomputes) / float64(res.Stats.Sorted)
			if v > 4 {
				b.Fatalf("seed %d: %.1f bound recomputes per sorted access, ceiling 4", seed, v)
			}
			per.Samples = append(per.Samples, stats.Sample{Seed: seed, Value: v})
		}
		timed := timedDB(dbs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustRun(b, ca(), access.New(timed, access.AllowAll), agg.Min(3), 10)
		}
		b.StopTimer()
		reportSeeds(b, per)
	})
}

// BenchmarkE17MaxAndSchedulers — max shortcut and the heuristic schedule.
func BenchmarkE17MaxAndSchedulers(b *testing.B) {
	db, err := workload.Zipf(workload.Spec{N: 20000, M: 3, Seed: 17}, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MaxTopK", func(b *testing.B) {
		var accesses float64
		for i := 0; i < b.N; i++ {
			res := mustRun(b, core.MaxTopK{}, access.New(db, access.Policy{NoRandom: true}), agg.Max(3), 10)
			accesses = float64(res.Stats.Accesses())
		}
		b.ReportMetric(accesses, "accesses")
	})
	b.Run("TA-lockstep", func(b *testing.B) {
		var accesses float64
		for i := 0; i < b.N; i++ {
			res := mustRun(b, &core.TA{}, access.New(db, access.AllowAll), agg.Sum(3), 10)
			accesses = float64(res.Stats.Accesses())
		}
		b.ReportMetric(accesses, "accesses")
	})
	b.Run("TA-delta", func(b *testing.B) {
		var accesses float64
		for i := 0; i < b.N; i++ {
			res := mustRun(b, &core.TA{Sched: core.Delta{Fairness: 50}}, access.New(db, access.AllowAll), agg.Sum(3), 10)
			accesses = float64(res.Stats.Accesses())
		}
		b.ReportMetric(accesses, "accesses")
	})
}

// BenchmarkShardedTA — the sharded concurrent engine vs single-shard TA
// on the large uniform workload. Partitioning happens once per shard
// count (outside the timed loop, as a production deployment would); each
// iteration answers one top-10 query. Two untimed interleaved baselines
// feed the custom metrics: speedup-vs-P1 divides the single-shard engine's
// wall-clock by the sharded query's (intra-query parallelism), and
// speedup-vs-seq divides the true sequential core.TA run's wall-clock the
// same way — exposing the full coordination overhead a P1-relative ratio
// hides. With GOMAXPROCS ≥ P both reflect parallel speedup. On a
// single-core runner the workers serialize, so any speedup-vs-seq above 1×
// is purely structural: the shard path batches sorted access (StepN) and
// recycles pooled sources. Both paths answer random access from the same
// dense grade-by-object column.
// The speedup metrics are multi-seed statistics: once per seed in
// stats.Seeds, the sharded query, sequential TA and the P1 engine run in
// interleaved rounds (interleavedRatios), and the seed's speedup is the
// median of its rounds' ratios, its interquartile range printed as
// -iqr-s<seed>. Every metric is reported as mean (historical key),
// -min/-max (the gate keys — bench.sh holds P8's speedup-vs-seq-min at
// ≥ 1.0, so one seed slower than sequential TA fails the floor) and
// per-seed -s<seed> values.
func BenchmarkShardedTA(b *testing.B) {
	tf := agg.Avg(3)
	const k, rounds = 10, 15
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 200000, M: 3, Seed: seed})
	})
	singles := make(map[int64]*shard.Engine, len(dbs))
	for seed, db := range dbs {
		single, err := shard.New(db, 1)
		if err != nil {
			b.Fatal(err)
		}
		singles[seed] = single
	}
	for _, p := range []int{1, 2, 4, 8} {
		eng, err := shard.New(timedDB(dbs), p)
		if err != nil {
			b.Fatal(err)
		}
		// The speedup protocol, once per seed and outside the timed
		// closure (the summaries do not depend on b.N).
		vsP1, vsSeq := newSeedRatios("speedup-vs-P1"), newSeedRatios("speedup-vs-seq")
		for _, seed := range stats.Seeds {
			db := dbs[seed]
			engS, err := shard.New(db, p)
			if err != nil {
				b.Fatal(err)
			}
			ratios := interleavedRatios(b, rounds,
				func() error {
					res, err := engS.Query(tf, k, shard.Options{})
					if err == nil && len(res.Items) != k {
						return fmt.Errorf("got %d items", len(res.Items))
					}
					return err
				},
				func() error {
					_, err := (&core.TA{}).Run(access.New(db, access.AllowAll), tf, k)
					return err
				},
				func() error {
					_, err := singles[seed].Query(tf, k, shard.Options{})
					return err
				})
			vsSeq.add(seed, ratios[0])
			vsP1.add(seed, ratios[1])
		}
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(tf, k, shard.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Items) != k {
					b.Fatalf("got %d items", len(res.Items))
				}
			}
			b.StopTimer()
			vsP1.report(b)
			vsSeq.report(b)
		})
	}
}

// BenchmarkShardedNRA — the sharded no-random-access engine vs the
// single-shard NRA run, same protocol as BenchmarkShardedTA: partitioning
// is untimed, each iteration answers one top-10 query with one resumable
// NRA worker per shard (sorted access only), speedup-vs-P1 divides the
// best-of-three single-shard wall-clock by the sharded per-query time, and
// speedup-vs-seq does the same against the true sequential core.NRA run.
// The protocol runs once per seed in stats.Seeds, and each metric is
// reported as mean, -min/-max and per-seed -s<seed> values, with the
// sharded query's sorted-access count beside them: that count grows with
// P, so part of any gap to sequential NRA is extra depth rather than
// coordination. Nothing here is gated: at -cpu 1 on a 2-core host the
// per-seed speedup-vs-seq of P4 and P8 spans about 0.86–1.5× from run to
// run, so a ≥ 1.0 floor on speedup-vs-seq-min would fail on noise.
func BenchmarkShardedNRA(b *testing.B) {
	tf := agg.Avg(3)
	const k = 10
	opts := shard.Options{NoRandomAccess: true}
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: seed})
	})
	query := func(eng *shard.Engine) (*core.Result, error) {
		res, err := eng.Query(tf, k, opts)
		switch {
		case err != nil:
			return nil, err
		case len(res.Items) != k:
			return nil, fmt.Errorf("got %d items", len(res.Items))
		case res.Stats.Random != 0:
			return nil, fmt.Errorf("no-random-access mode made %d random accesses", res.Stats.Random)
		}
		return res, nil
	}
	singles := make(map[int64]*shard.Engine, len(dbs))
	for seed, db := range dbs {
		single, err := shard.New(db, 1)
		if err != nil {
			b.Fatal(err)
		}
		singles[seed] = single
	}
	for _, p := range []int{1, 2, 4, 8} {
		eng, err := shard.New(timedDB(dbs), p)
		if err != nil {
			b.Fatal(err)
		}
		var vsP1, vsSeq, sorted stats.Summary
		vsP1.Name, vsSeq.Name, sorted.Name = "speedup-vs-P1", "speedup-vs-seq", "sorted-accesses"
		for _, seed := range stats.Seeds {
			db := dbs[seed]
			engS, err := shard.New(db, p)
			if err != nil {
				b.Fatal(err)
			}
			baseline := bestOfThree(b, func() error {
				_, err := query(singles[seed])
				return err
			})
			seqBaseline := bestOfThree(b, func() error {
				_, err := (&core.NRA{}).Run(access.New(db, access.Policy{NoRandom: true}), tf, k)
				return err
			})
			var accesses int64
			per := bestOfThree(b, func() error {
				res, err := query(engS)
				if err == nil {
					accesses = res.Stats.Sorted
				}
				return err
			})
			vsP1.Samples = append(vsP1.Samples, stats.Sample{Seed: seed, Value: float64(baseline) / float64(per)})
			vsSeq.Samples = append(vsSeq.Samples, stats.Sample{Seed: seed, Value: float64(seqBaseline) / float64(per)})
			sorted.Samples = append(sorted.Samples, stats.Sample{Seed: seed, Value: float64(accesses)})
		}
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query(eng); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportSeeds(b, vsP1)
			reportSeeds(b, vsSeq)
			reportSeeds(b, sorted)
		})
	}
}

// BenchmarkSharedScan — the shared-scan batch executor vs independent
// execution of the same batch: Q identical queries over the same lists,
// run once through ParallelQueries (every query re-scans its own cursors)
// and once through BatchQuery (one physical scan per list feeds all Q).
// Results and per-query accounting are asserted identical; the metrics
// record the physical sorted accesses each path performs on the database
// and their ratio (≈ Q for identical queries).
//
// An untimed, unguarded scaling record rides along: per seed, a batch
// shaped like perfbench's scan-ta workload (8 TA and TAθ queries of mixed
// k and aggregation over uniform N = 50 000, m = 3) runs through
// BatchQuery at 1 and 2 workers in interleaved rounds, and
// batch-w1-over-w2 is the median ratio of the 1-worker time over the
// 2-worker time (above 1: the second worker helps), with the runner's
// core count beside it as nproc: no ratio can exceed it.
func BenchmarkSharedScan(b *testing.B) {
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 100000, M: 3, Seed: seed})
	})
	db := timedDB(dbs)
	const q, k = 8, 10
	specs := make([]repro.QuerySpec, q)
	for i := range specs {
		specs[i] = repro.QuerySpec{Agg: repro.Avg(3), K: k}
	}
	ind := repro.ParallelQueries(db, specs, q)
	var indSorted int64
	for _, oc := range ind {
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
		indSorted += oc.Result.Stats.Sorted
	}
	b.ResetTimer()
	var sharedSorted int64
	for i := 0; i < b.N; i++ {
		br := repro.BatchQuery(db, specs, q)
		for j, oc := range br.Outcomes {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
			if oc.Result.Stats.Sorted != ind[j].Result.Stats.Sorted {
				b.Fatalf("query %d: per-query accounting diverged (%d vs %d)",
					j, oc.Result.Stats.Sorted, ind[j].Result.Stats.Sorted)
			}
			if oc.Result.Items[0] != ind[j].Result.Items[0] {
				b.Fatalf("query %d: results diverged", j)
			}
		}
		sharedSorted = br.Scan.Sorted
		if sharedSorted >= indSorted {
			b.Fatalf("shared scan performed %d sorted accesses, independent runs %d", sharedSorted, indSorted)
		}
	}
	b.StopTimer()
	// Untimed tier profile under a Zipf-like stream, once per statistical
	// seed: power-law positions (u⁶-skewed, deterministic) concentrate
	// accesses on a small head, the workload the tiered cache's hot tier is
	// meant to serve for free while the cold tier absorbs the mid-tail at
	// fractional cost. The skew puts roughly half the stream inside the
	// 128-page budget, so a healthy tiered cache must clear a 0.2 hit rate
	// on every seed.
	zipfHit := stats.Summary{Name: "zipf-hit-rate"}
	zipfCold := stats.Summary{Name: "zipf-cold-hit-rate"}
	zipfCost := stats.Summary{Name: "zipf-charged"}
	for _, seed := range stats.Seeds {
		zs, charged := zipfTierProfile(b, dbs[seed], seed)
		if zs.HitRate() <= 0.2 {
			b.Fatalf("seed %d: tiered cache hit rate %.4f on the Zipf-like stream — head pages are not sticking", seed, zs.HitRate())
		}
		ztotal := float64(zs.Hits + zs.ColdHits + zs.Misses)
		zipfHit.Samples = append(zipfHit.Samples, stats.Sample{Seed: seed, Value: zs.HitRate()})
		zipfCold.Samples = append(zipfCold.Samples, stats.Sample{Seed: seed, Value: float64(zs.ColdHits) / ztotal})
		zipfCost.Samples = append(zipfCost.Samples, stats.Sample{Seed: seed, Value: charged})
	}
	scaling := newSeedRatios("batch-w1-over-w2")
	for _, seed := range stats.Seeds {
		scaling.add(seed, batchScaling(b, seed))
	}
	b.ReportMetric(float64(indSorted), "independent-sorted")
	b.ReportMetric(float64(sharedSorted), "shared-sorted")
	b.ReportMetric(float64(indSorted)/float64(sharedSorted), "scan-sharing")
	reportSeeds(b, zipfHit)
	reportSeeds(b, zipfCold)
	reportSeeds(b, zipfCost)
	scaling.report(b)
	b.ReportMetric(float64(runtime.NumCPU()), "nproc")
}

// batchScaling times a scan-ta-shaped batch through BatchQuery at 2 and 1
// workers in interleaved rounds and returns the rounds' 1-worker over
// 2-worker time ratios.
func batchScaling(b *testing.B, seed int64) []float64 {
	b.Helper()
	db, err := workload.IndependentUniform(workload.Spec{N: 50000, M: 3, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	aggs, ks := []repro.AggFunc{repro.Avg(3), repro.Min(3), repro.Sum(3)}, []int{5, 10, 20}
	specs := make([]repro.QuerySpec, 8)
	for i := range specs {
		specs[i] = repro.QuerySpec{Agg: aggs[i%3], K: ks[(i+i/3)%3]}
		if i >= 6 {
			specs[i].Opts.Theta = 1.5 // the crawlers' TAθ
		}
	}
	run := func(workers int) func() error {
		return func() error {
			for _, oc := range repro.BatchQuery(db, specs, workers).Outcomes {
				if oc.Err != nil {
					return oc.Err
				}
			}
			return nil
		}
	}
	return interleavedRatios(b, 15, run(2), run(1))[0]
}

// zipfTierProfile replays the deterministic u⁶-skewed probe stream against
// a small tiered cache over one remote list of db and returns the cache's
// stats and the total charged cost.
func zipfTierProfile(b *testing.B, db *repro.Database, seed int64) (access.CacheStats, float64) {
	b.Helper()
	zc := access.NewCache(access.CacheConfig{PageSize: 16, Pages: 32, ColdPages: 96})
	zl, ok := zc.Wrap(0, access.NewRemote(db.List(0), access.CostModel{CS: 1, CR: 8}, access.Latency{})).(access.CostedList)
	if !ok {
		b.Fatal("cache wrapper lost the CostedList interface")
	}
	charged := 0.0
	state := uint64(seed)
	for i := 0; i < 50000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53)
		pos := int(float64(db.N()) * u * u * u * u * u * u)
		if pos >= db.N() {
			pos = db.N() - 1
		}
		_, cost := zl.AtCost(pos)
		charged += cost
	}
	return zc.Stats(), charged
}

// remoteShardStack partitions db into p shards behind simulated remote
// backends where shard 0 is the expensive straggler (factor× the unit
// costs, cR = 8·cS), with an optional shared per-shard page cache and
// per-access latency. Shard 0 is deliberately the *first* shard: a
// cost-oblivious schedule that visits shards in index order pays the
// straggler before any cheap evidence has raised M_k — the placement the
// cost-aware scheduler is measured against.
func remoteShardStack(b *testing.B, db *repro.Database, p int, factor float64, lat time.Duration, cacheCfg *access.CacheConfig) *shard.Engine {
	b.Helper()
	dbs, err := db.Partition(p)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		cm := access.CostModel{CS: 1, CR: 8}
		var l access.Latency
		if s == 0 {
			cm.CS *= factor
			cm.CR *= factor
			// Only the straggler is slow: the latency skew the scheduler
			// and cache are measured against.
			l = access.Latency{Sorted: lat, Random: lat, Jitter: 0.3, Seed: uint64(s + 1)}
		}
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = access.NewRemote(sdb.List(i), cm, l)
		}
		sb := shard.ShardBackend{DB: sdb, Lists: lists}
		if cacheCfg != nil {
			c := access.NewCache(*cacheCfg)
			sb.Lists = access.WrapLists(c, lists)
			sb.Cache = c
		}
		shards[s] = sb
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRemoteShards — the pluggable backend stack under a skewed
// backend set: P=4 shards behind simulated remote backends where shard 0
// is a 16× straggler, queried in the no-random-access mode. The charged
// metrics compare the schedulers deterministically (one worker, so the
// comparison never flakes on goroutine interleaving): charged-wave is the
// cost-oblivious wave schedule visiting the straggler first, which runs it
// deep while M_k is still low; charged-cost-aware defers it until the
// cheap shards have raised M_k, and the benchmark fails unless that
// reduces charged cost (cancel-savings is the ratio; the concurrent
// default's charge lands between the two, depending on interleaving).
// The timed loop then issues a repeated-query stream against one
// persistent *cached* engine with real simulated latency; cache-hit-rate
// reports the page cache's hit fraction (hot + cold tiers) over the
// stream — the latency and charge the cache absorbed.
//
// Two further untimed comparisons guard the tiered-cache and batched-
// remote claims deterministically: a scan-heavy access stream is replayed
// against a flat LRU and a TinyLFU-admitted tiered cache of the same page
// budget (the tiered cache must keep a higher hit rate and a lower
// charged cost once deep scans exceed capacity), and the same prefix is
// read through per-entry and batch-round-trip remotes (the batched model
// must slash simulated latency while single-entry semantics stay intact).
func BenchmarkRemoteShards(b *testing.B) {
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 60000, M: 3, Seed: seed})
	})
	db := timedDB(dbs)
	tf := agg.Avg(3)
	const p, k, factor = 4, 10, 16
	charged := make(map[shard.Schedule]float64, 2)
	var uncachedAnswer []model.Grade
	for _, sched := range []shard.Schedule{shard.ScheduleWave, shard.ScheduleCostAware} {
		eng := remoteShardStack(b, db, p, factor, 0, nil)
		res, err := eng.Query(tf, k, shard.Options{
			NoRandomAccess: true, Workers: 1, Schedule: sched,
		})
		if err != nil {
			b.Fatal(err)
		}
		charged[sched] = res.Stats.Charged()
		if sched == shard.ScheduleCostAware {
			uncachedAnswer = core.TrueGradeMultiset(db, tf, res.Items)
		}
	}
	if charged[shard.ScheduleCostAware] >= charged[shard.ScheduleWave] {
		b.Fatalf("cost-aware scheduler charged %g, wave charged %g — no cancellation savings on the skewed backend set",
			charged[shard.ScheduleCostAware], charged[shard.ScheduleWave])
	}

	// Scan resistance, once per statistical seed: the same repeat-heavy
	// stream with periodic deep scans, against a flat LRU and a tiered
	// cache splitting the *same* 256-page budget 64 hot / 192 cold. The
	// scans cover twice the budget, so the flat LRU flushes its working set
	// on every scan; the tiered cache's admission filter keeps the
	// repeat-heavy pages in the cold tier and serves them at the fractional
	// cold-hit cost. Every seed must show the tiered cache ahead — one
	// contradicting seed fails the benchmark, and bench.sh additionally
	// gates tiered-savings-min and tiered-hit-margin-min.
	lruHit := stats.Summary{Name: "lru-hit-rate"}
	tierHit := stats.Summary{Name: "tiered-hit-rate"}
	tierMargin := stats.Summary{Name: "tiered-hit-margin"}
	tierHot := stats.Summary{Name: "tiered-hot-hit-rate"}
	tierCold := stats.Summary{Name: "tiered-cold-hit-rate"}
	tierSave := stats.Summary{Name: "tiered-savings"}
	batchSave := stats.Summary{Name: "batched-remote-savings"}
	for _, seed := range stats.Seeds {
		sdb := dbs[seed]
		lruStats, lruCharged := scanChargeStream(b, sdb, seed, access.CacheConfig{PageSize: 16, Pages: 256, ColdPages: -1})
		tierStats, tierCharged := scanChargeStream(b, sdb, seed, access.CacheConfig{PageSize: 16, Pages: 64, ColdPages: 192})
		if tierStats.HitRate() <= lruStats.HitRate() {
			b.Fatalf("seed %d: tiered cache hit rate %.4f did not beat flat LRU %.4f on the scan-heavy stream",
				seed, tierStats.HitRate(), lruStats.HitRate())
		}
		if tierCharged >= lruCharged {
			b.Fatalf("seed %d: tiered cache charged %g, flat LRU charged %g — no scan-resistance saving", seed, tierCharged, lruCharged)
		}
		if tierStats.AdmissionRejects == 0 || tierStats.ColdHits == 0 {
			b.Fatalf("seed %d: tiered stream exercised no admission control: %+v", seed, tierStats)
		}
		total := float64(tierStats.Hits + tierStats.ColdHits + tierStats.Misses)
		lruHit.Samples = append(lruHit.Samples, stats.Sample{Seed: seed, Value: lruStats.HitRate()})
		tierHit.Samples = append(tierHit.Samples, stats.Sample{Seed: seed, Value: tierStats.HitRate()})
		tierMargin.Samples = append(tierMargin.Samples, stats.Sample{Seed: seed, Value: tierStats.HitRate() - lruStats.HitRate()})
		tierHot.Samples = append(tierHot.Samples, stats.Sample{Seed: seed, Value: float64(tierStats.Hits) / total})
		tierCold.Samples = append(tierCold.Samples, stats.Sample{Seed: seed, Value: float64(tierStats.ColdHits) / total})
		tierSave.Samples = append(tierSave.Samples, stats.Sample{Seed: seed, Value: lruCharged / tierCharged})
		batchSave.Samples = append(batchSave.Samples, stats.Sample{Seed: seed, Value: batchedRemoteSavings(b, sdb, seed)})
	}

	cached := remoteShardStack(b, db, p, factor, time.Microsecond, &access.CacheConfig{})
	// One untimed warm-up fills the caches, so the timed loop measures the
	// hot-shard repeated-query path (and the hit rate is meaningful even
	// at a single timed iteration). The cached answer must equal the
	// uncached one as a tie-safe grade multiset.
	warm, err := cached.Query(tf, k, shard.Options{
		NoRandomAccess: true, Schedule: shard.ScheduleCostAware,
	})
	if err != nil {
		b.Fatal(err)
	}
	cachedAnswer := core.TrueGradeMultiset(db, tf, warm.Items)
	for i := range uncachedAnswer {
		if cachedAnswer[i] != uncachedAnswer[i] {
			b.Fatalf("cached engine's top-k grade multiset diverged from uncached at rank %d", i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cached.Query(tf, k, shard.Options{
			NoRandomAccess: true, Schedule: shard.ScheduleCostAware,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Items) != k {
			b.Fatalf("got %d items", len(res.Items))
		}
	}
	b.StopTimer()
	var hits, misses int64
	for _, cs := range cached.CacheStats() {
		hits += cs.Hits + cs.ColdHits
		misses += cs.Misses
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(charged[shard.ScheduleWave], "charged-wave")
	b.ReportMetric(charged[shard.ScheduleCostAware], "charged-cost-aware")
	b.ReportMetric(charged[shard.ScheduleWave]/charged[shard.ScheduleCostAware], "cancel-savings")
	b.ReportMetric(rate, "cache-hit-rate")
	reportSeeds(b, lruHit)
	reportSeeds(b, tierHit)
	reportSeeds(b, tierMargin)
	reportSeeds(b, tierHot)
	reportSeeds(b, tierCold)
	reportSeeds(b, tierSave)
	reportSeeds(b, batchSave)
}

// batchedRemoteSavings reads the same 32k-entry prefix of db's first list
// in 32-entry batches through a per-entry-latency remote and a
// batch-round-trip remote with identical jitter/straggler schedules.
// Entries must match exactly; the return value is the simulated-latency
// ratio (per-entry / batched), which must at least be a win.
func batchedRemoteSavings(b *testing.B, db *repro.Database, seed int64) float64 {
	b.Helper()
	const batchEntries, batchSize = 32768, 32
	blat := access.Latency{Sorted: time.Microsecond, Jitter: 0.3, StragglerEvery: 97, Seed: uint64(seed)}
	perEntry := access.NewRemote(db.List(0), access.CostModel{CS: 1, CR: 8}, blat)
	blat.BatchRTT = true
	batchedRemote := access.NewRemote(db.List(0), access.CostModel{CS: 1, CR: 8}, blat)
	pbuf := make([]model.Entry, batchSize)
	bbuf := make([]model.Entry, batchSize)
	for pos := 0; pos < batchEntries; pos += batchSize {
		pn := perEntry.AtN(pos, pbuf)
		bn := batchedRemote.AtN(pos, bbuf)
		if pn != bn {
			b.Fatalf("batch at %d: per-entry returned %d entries, batched %d", pos, pn, bn)
		}
		for j := 0; j < pn; j++ {
			if pbuf[j] != bbuf[j] {
				b.Fatalf("batch at %d entry %d: %v vs %v", pos, j, bbuf[j], pbuf[j])
			}
		}
	}
	savings := float64(perEntry.SimulatedLatency()) / float64(batchedRemote.SimulatedLatency())
	if savings < 2 {
		b.Fatalf("batched round-trip model saved only %.2fx simulated latency over per-entry draws", savings)
	}
	return savings
}

// scanChargeStream replays a deterministic repeat-heavy access stream
// with periodic deep scans against one cache-wrapped remote list: three
// rounds of eight sequential passes over a 2048-entry working set, each
// followed by an 8192-entry scan (512 pages of 16 — twice the 256-page
// budget both cache shapes are given). It returns the cache's stats and
// the total cost the stream was charged.
func scanChargeStream(b *testing.B, db *repro.Database, seed int64, cfg access.CacheConfig) (access.CacheStats, float64) {
	b.Helper()
	c := access.NewCache(cfg)
	l, ok := c.Wrap(0, access.NewRemote(db.List(0), access.CostModel{CS: 1, CR: 8}, access.Latency{})).(access.CostedList)
	if !ok {
		b.Fatal("cache wrapper lost the CostedList interface")
	}
	// The working set starts at a seed-derived (deliberately unaligned)
	// offset, so each statistical seed exercises a different page layout
	// rather than replaying one fixed stream three times.
	const working, scan = 2048, 8192
	base := int(seed % 1000)
	charged := 0.0
	for round := 0; round < 3; round++ {
		for rep := 0; rep < 8; rep++ {
			for pos := base; pos < base+working; pos++ {
				_, cost := l.AtCost(pos)
				charged += cost
			}
		}
		for pos := 0; pos < scan; pos++ {
			_, cost := l.AtCost(pos)
			charged += cost
		}
	}
	return c.Stats(), charged
}

// BenchmarkCostAwareTA — cost-adaptive access planning at the ratio the
// acceptance claim names: against backends declaring cR/cS = 4 (and a
// 16× point for the trend), cost-aware TA must be charged less than plain
// TA for the same answer, deterministically — the benchmark fails if the
// saving disappears at either ratio. The timed loop measures the
// cost-aware run itself; the charged metrics come from untimed one-shot
// comparisons (sequential runs, so they never flake on interleaving).
// The charged comparison runs once per statistical seed, and any seed on
// which the saving disappears fails the benchmark outright — the
// directional-consistency gate, enforced at the source.
//
// progress-recomputes-per-sorted is the bookkeeping a progress report
// costs at the crawlers' k: bound recomputes per sorted access of a
// hooked run (always-true hook, k = 250, cR/cS = 4, avg) over Zipf(1.2)
// N = 20 000, a deterministic count. Any seed above 10 fails the
// benchmark: refreshing every top-k member on every report read about 90,
// and the groups, read one best per group, measure 7.3–8.0 (10 is that
// maximum plus 25%).
func BenchmarkCostAwareTA(b *testing.B) {
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: seed})
	})
	zipfDBs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.Zipf(workload.Spec{N: 20000, M: 3, Seed: seed}, 1.2)
	})
	tf := agg.Avg(3)
	const k = 10
	src := func(db *repro.Database, ratio float64) *access.Source {
		lists := make([]access.ListSource, db.M())
		for i := range lists {
			lists[i] = access.NewRemote(db.List(i), access.CostModel{CS: 1, CR: ratio}, access.Latency{})
		}
		return access.FromLists(lists, access.AllowAll)
	}
	chargedTA := stats.Summary{Name: "charged-ta"}
	chargedCA := stats.Summary{Name: "charged-cost-aware-ta"}
	savings := stats.Summary{Name: "ta-savings"}
	savingsR16 := stats.Summary{Name: "ta-savings-r16"}
	recomputes := stats.Summary{Name: "progress-recomputes-per-sorted"}
	for _, seed := range stats.Seeds {
		hooked := &core.CostAwareTA{Costs: access.CostModel{CS: 1, CR: 4}, OnProgress: func(core.Progress) bool { return true }}
		res := mustRun(b, hooked, access.New(zipfDBs[seed], access.AllowAll), tf, 250)
		per := float64(res.Stats.BoundRecomputes) / float64(res.Stats.Sorted)
		if per > 10 {
			b.Fatalf("seed %d: %.1f bound recomputes per sorted access in a hooked k=250 run, ceiling 10", seed, per)
		}
		recomputes.Samples = append(recomputes.Samples, stats.Sample{Seed: seed, Value: per})
	}
	for _, seed := range stats.Seeds {
		db := dbs[seed]
		for _, ratio := range []float64{4, 16} {
			ta := mustRun(b, &core.TA{}, src(db, ratio), tf, k)
			cata := mustRun(b, &core.CostAwareTA{}, src(db, ratio), tf, k)
			want := core.TrueGradeMultiset(db, tf, ta.Items)
			got := core.TrueGradeMultiset(db, tf, cata.Items)
			for i := range want {
				if want[i] != got[i] {
					b.Fatalf("seed %d, cR/cS=%g: cost-aware TA diverged from TA", seed, ratio)
				}
			}
			if cata.Stats.Charged() >= ta.Stats.Charged() {
				b.Fatalf("seed %d, cR/cS=%g: cost-aware TA charged %g, TA charged %g — no saving",
					seed, ratio, cata.Stats.Charged(), ta.Stats.Charged())
			}
			save := stats.Sample{Seed: seed, Value: ta.Stats.Charged() / cata.Stats.Charged()}
			if ratio == 4 {
				chargedTA.Samples = append(chargedTA.Samples, stats.Sample{Seed: seed, Value: ta.Stats.Charged()})
				chargedCA.Samples = append(chargedCA.Samples, stats.Sample{Seed: seed, Value: cata.Stats.Charged()})
				savings.Samples = append(savings.Samples, save)
			} else {
				savingsR16.Samples = append(savingsR16.Samples, save)
			}
		}
	}
	timed := timedDB(dbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustRun(b, &core.CostAwareTA{}, src(timed, 4), tf, k)
		if len(res.Items) != k {
			b.Fatalf("got %d items", len(res.Items))
		}
	}
	b.StopTimer()
	reportSeeds(b, chargedTA)
	reportSeeds(b, chargedCA)
	reportSeeds(b, savings)
	reportSeeds(b, savingsR16)
	reportSeeds(b, recomputes)
}

// lyingShardStack partitions db into p shards that all DECLARE the same
// cheap cost model while shard 0's backends truly bill factor× more and
// sleep a real per-access latency — the fixture where declared-cost
// scheduling is systematically wrong. Shard 0 is deliberately first: the
// all-equal declared tie breaks toward it, so the declared-cost schedule
// runs the truly expensive shard deep while the global M_k is still low.
func lyingShardStack(b *testing.B, db *repro.Database, p int, factor float64, lat time.Duration) *shard.Engine {
	b.Helper()
	dbs, err := db.Partition(p)
	if err != nil {
		b.Fatal(err)
	}
	declared := access.CostModel{CS: 1, CR: 8}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		truth := declared
		var l access.Latency
		if s == 0 {
			truth = access.CostModel{CS: declared.CS * factor, CR: declared.CR * factor}
			l = access.Latency{Sorted: lat, Random: lat, Jitter: 0.3, Seed: uint64(s + 1)}
		}
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = access.NewMisdeclared(access.NewRemote(sdb.List(i), truth, l), declared)
		}
		shards[s] = shard.ShardBackend{DB: sdb, Lists: lists}
	}
	eng, err := shard.FromBackends(shards)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkAdaptiveSchedule — EWMA observed-cost feedback against backends
// whose declared costs lie. P=4 shards all declare the same cheap costs;
// shard 0 truly bills 16× and sleeps a real latency. ScheduleCostAware
// trusts the declarations, ties toward shard 0, and scans the expensive
// shard deep while M_k is still low; ScheduleAdaptive probes in bounded
// resumes, learns the true relative costs from observed per-round latency,
// and defers shard 0 until the cheap shards have raised M_k. The benchmark
// fails unless the adaptive schedule's truly-charged cost undercuts the
// declared-cost schedule's on the same fixture (adaptive-savings is the
// ratio), and unless the answers match the wave schedule's exactly.
// Workers: 1 keeps both comparison runs' access sequences deterministic;
// only the EWMA ordering depends on wall-clock, and the fixture separates
// the shards' latencies by far more than scheduler noise.
func BenchmarkAdaptiveSchedule(b *testing.B) {
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 16000, M: 3, Seed: seed})
	})
	tf := agg.Avg(3)
	const p, k, factor = 4, 10, 16
	const lat = 50 * time.Microsecond
	declared := stats.Summary{Name: "charged-declared"}
	adaptive := stats.Summary{Name: "charged-adaptive"}
	savings := stats.Summary{Name: "adaptive-savings"}
	for _, seed := range stats.Seeds {
		db := dbs[seed]
		want, err := lyingShardStack(b, db, p, factor, 0).Query(tf, k, shard.Options{
			NoRandomAccess: true, Workers: 1, Schedule: shard.ScheduleWave,
		})
		if err != nil {
			b.Fatal(err)
		}
		charged := make(map[shard.Schedule]float64, 2)
		for _, sched := range []shard.Schedule{shard.ScheduleCostAware, shard.ScheduleAdaptive} {
			res, err := lyingShardStack(b, db, p, factor, lat).Query(tf, k, shard.Options{
				NoRandomAccess: true, Workers: 1, Schedule: sched,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Compare object sets: scan depths (and therefore the W-order of
			// the answer items) differ between schedules; the top-k set is
			// unique on this distinct-grade workload.
			wantSet := make(map[repro.ObjectID]bool, len(want.Items))
			for _, it := range want.Items {
				wantSet[it.Object] = true
			}
			for _, it := range res.Items {
				if !wantSet[it.Object] {
					b.Fatalf("seed %d: schedule %q answered object %d, absent from the wave answer", seed, sched, it.Object)
				}
			}
			charged[sched] = res.Stats.Charged()
		}
		if charged[shard.ScheduleAdaptive] >= charged[shard.ScheduleCostAware] {
			b.Fatalf("seed %d: adaptive schedule charged %g, declared-cost schedule charged %g — observed-cost feedback bought nothing on the lying fixture",
				seed, charged[shard.ScheduleAdaptive], charged[shard.ScheduleCostAware])
		}
		declared.Samples = append(declared.Samples, stats.Sample{Seed: seed, Value: charged[shard.ScheduleCostAware]})
		adaptive.Samples = append(adaptive.Samples, stats.Sample{Seed: seed, Value: charged[shard.ScheduleAdaptive]})
		savings.Samples = append(savings.Samples, stats.Sample{Seed: seed, Value: charged[shard.ScheduleCostAware] / charged[shard.ScheduleAdaptive]})
	}
	eng := lyingShardStack(b, timedDB(dbs), p, factor, lat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(tf, k, shard.Options{
			NoRandomAccess: true, Workers: 1, Schedule: shard.ScheduleAdaptive,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Items) != k {
			b.Fatalf("got %d items", len(res.Items))
		}
	}
	b.StopTimer()
	reportSeeds(b, declared)
	reportSeeds(b, adaptive)
	reportSeeds(b, savings)
}

// --- micro-benchmarks of the algorithms themselves ---

func benchAlgo(b *testing.B, al core.Algorithm, pol access.Policy) {
	db, err := workload.IndependentUniform(workload.Spec{N: 20000, M: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tf := agg.Avg(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.Run(access.New(db, pol), tf, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoTA(b *testing.B) { benchAlgo(b, &core.TA{}, access.AllowAll) }
func BenchmarkAlgoTAMemo(b *testing.B) {
	benchAlgo(b, &core.TA{Memoize: true}, access.AllowAll)
}
func BenchmarkAlgoFA(b *testing.B)  { benchAlgo(b, core.FA{}, access.AllowAll) }
func BenchmarkAlgoNRA(b *testing.B) { benchAlgo(b, &core.NRA{}, access.Policy{NoRandom: true}) }
func BenchmarkAlgoCA(b *testing.B) {
	benchAlgo(b, &core.CA{Costs: access.CostModel{CS: 1, CR: 8}}, access.AllowAll)
}
func BenchmarkAlgoNaive(b *testing.B) { benchAlgo(b, core.Naive{}, access.AllowAll) }

// BenchmarkFallibleOverhead — the robustness guard: Source has one sorted
// read, SortedNextN, which carries the failure contract (a per-call context
// check and the retry loop) on every stack. A fault-free query must not pay
// for that machinery. The timed loop runs a batched full scan of a plain
// (infallible) source with the machinery armed — a cancellable context
// bound and DefaultRetry installed — and the untimed baseline scans the
// same source idle: no context bound and retries off (MaxAttempts 1).
// scripts/bench.sh holds the reported fallible-overhead ratio (armed over
// idle) at ≤ 1.05 on every seed. The cost of an actual zero-plan fault
// injector in the stack (per-access deterministic schedule checks,
// inherent to injection) is reported separately as injector-overhead,
// unguarded.
//
// The sides are interleaved (interleavedRatios) — idle, armed, injector,
// idle, … — and each round's armed and injector scans are divided by the
// idle scan timed just before them, so drift or steal on the host lands on
// every side of a ratio alike instead of on whichever side ran last. A
// seed's ratio is the median over rounds; its interquartile range is
// reported per seed as -iqr-s<seed>.
func BenchmarkFallibleOverhead(b *testing.B) {
	dbs := seedDBs(b, func(seed int64) (*repro.Database, error) {
		return workload.IndependentUniform(workload.Spec{N: 100000, M: 2, Seed: seed})
	})
	pol := access.Policy{NoRandom: true}
	buf := make([]model.Entry, 256)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// scan reads every list of src to its end, armed or idle.
	scan := func(src *access.Source, armed bool) error {
		src.Reset()
		if armed {
			src.SetRetry(access.DefaultRetry)
			src.BindContext(ctx)
		} else {
			src.SetRetry(access.Retry{MaxAttempts: 1})
		}
		for i := 0; i < src.M(); i++ {
			for !src.Exhausted(i) {
				if _, err := src.SortedNextN(i, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	sources := func(db *repro.Database) (plain, faulty *access.Source) {
		injected := make([]access.ListSource, db.M())
		for i := range injected {
			injected[i] = access.NewFaulty(db.List(i), access.FaultPlan{})
		}
		return access.New(db, pol), access.FromLists(injected, pol)
	}
	const rounds = 25
	overhead, injector := newSeedRatios("fallible-overhead"), newSeedRatios("injector-overhead")
	for _, seed := range stats.Seeds {
		plain, faulty := sources(dbs[seed])
		ratios := interleavedRatios(b, rounds,
			func() error { return scan(plain, false) },
			func() error { return scan(plain, true) },
			func() error { return scan(faulty, false) })
		if st := faulty.Stats(); st.Faults != 0 || st.Retries != 0 {
			b.Fatalf("seed %d: zero-plan injector faulted: %+v", seed, st)
		}
		overhead.add(seed, ratios[0])
		injector.add(seed, ratios[1])
	}
	timed, _ := sources(timedDB(dbs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := scan(timed, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	overhead.report(b)
	injector.report(b)
}

// quartile returns the q-th quartile (q = 1, 2, 3; 2 is the median) of xs
// by linear interpolation between order statistics. It sorts xs.
func quartile(xs []float64, q int) float64 {
	sort.Float64s(xs)
	pos := float64(q) / 4 * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
