// Command topk runs a top-k aggregation query over a CSV database (the
// format written by cmd/datagen and model.WriteCSV: a header row, then one
// "id,g1,...,gm" row per object).
//
// Usage:
//
//	topk -data db.csv -agg min -k 10
//	topk -data db.csv -agg avg -k 5 -algo CA -cs 1 -cr 10
//	topk -data db.csv -agg sum -k 3 -algo NRA -no-random
//	topk -data db.csv -agg avg -k 5 -theta 1.5
//	topk -data db.csv -agg avg -k 10 -shards 4
//	topk -data db.csv -agg avg -k 10 -shards 4 -no-random
//	topk -data db.csv -agg avg -k 10 -shards -1 -no-random        (auto shard count)
//	topk -data db.csv -agg avg -k 10 -shards 4 -no-random \
//	     -remote -cs 1 -cr 8 -backend-latency 200us -backend-stragglers 1 \
//	     -cache -schedule cost-aware                               (remote backend stack)
//	topk -data db.csv -agg avg -k 10 -cs 1 -cr 8 -cost-aware-ta   (CA-style access planning)
//	topk -data db.csv -agg avg -k 10 -shards 4 -no-random \
//	     -remote -schedule adaptive                                (observed-cost feedback)
//	topk -data db.csv -agg avg -k 10 -shards 4 \
//	     -fault-rate 0.05 -fault-burst 500 -retry-budget 6         (chaos: transient faults, retried)
//	topk -data db.csv -agg avg -k 10 -shards 4 \
//	     -fault-dead-list 0 -min-theta 2                           (shard loss → θ-degraded answer)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/shard"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV database file (required)")
		aggName  = flag.String("agg", "min", "aggregation: min|max|sum|avg|product|median|geomean")
		k        = flag.Int("k", 10, "number of answers")
		algo     = flag.String("algo", "", "algorithm: TA|FA|NRA|CA|Naive|MaxTopK (default TA, or NRA with -no-random)")
		cs       = flag.Float64("cs", 1, "sorted access cost cS")
		cr       = flag.Float64("cr", 1, "random access cost cR")
		theta    = flag.Float64("theta", 0, "θ-approximation parameter (>1 enables TAθ)")
		noRandom = flag.Bool("no-random", false, "forbid random access (NRA scenario)")
		costTA   = flag.Bool("cost-aware-ta", false, "cost-adaptive TA: allocate sorted accesses cheapest-first and spend random access at the CA cadence h≈cR/cS (exact answers, lower charged cost when cR≫cS)")
		shards   = flag.Int("shards", 0, "partition the database into this many shards and query them concurrently (TA workers, or resumable NRA workers with -no-random; 0 = no sharding, -1 = pick automatically from N, k and GOMAXPROCS)")
		workers  = flag.Int("shard-workers", 0, "max concurrent shard workers (0 = one per shard)")

		remote     = flag.Bool("remote", false, "simulate remote backends: every access is charged -cs/-cr and delayed per -backend-latency")
		latency    = flag.Duration("backend-latency", 0, "base simulated latency per backend access (with -remote)")
		jitter     = flag.Float64("backend-jitter", 0, "latency jitter fraction in [0,1] (with -remote)")
		stragglers = flag.Int("backend-stragglers", 0, "number of highest-index shards whose backend costs/latency are stretched by -straggler-factor")
		stragglerF = flag.Float64("straggler-factor", 0, "cost/latency multiplier for straggler shards (default 8)")
		batchRTT   = flag.Bool("backend-batch-rtt", false, "batched sorted reads pay one round-trip draw per batch plus a per-entry marginal (with -remote)")
		batchMarg  = flag.Float64("backend-batch-marginal", 0, "per-additional-entry latency fraction of the base sorted latency under -backend-batch-rtt (default 0.1)")
		useCache   = flag.Bool("cache", false, "insert a per-shard page cache + random-access memo above the backends")
		cachePages = flag.Int("cache-pages", 0, "hot-tier page-cache capacity in pages (default 256)")
		pageSize   = flag.Int("cache-page-size", 0, "entries per cached page (default 64)")
		coldPages  = flag.Int("cache-cold-pages", 0, "cold-tier capacity in pages behind the TinyLFU admission filter (default 4x -cache-pages; negative disables the cold tier)")
		coldCost   = flag.Float64("cache-cold-hit-cost", 0, "fraction of the declared access cost charged per cold-tier hit (default 0.1; negative = free)")
		cacheMemo  = flag.Int("cache-memo", 0, "random-access memo capacity in grades (default 4096)")
		schedule   = flag.String("schedule", "", "sharded NRA scheduling policy: wave|cost-aware|adaptive (default wave; adaptive feeds observed latency back into the cost-aware priorities)")

		faultRate  = flag.Float64("fault-rate", 0, "per-access transient failure probability in [0,1] (enables the fault injector)")
		faultBurst = flag.Int("fault-burst", 0, "open a 4-access outage window every this many accesses per list (0 = no bursts)")
		faultDead  = flag.Int("fault-dead-list", -1, "kill this list (0-based) permanently — on the highest-index shard when sharded — to exercise θ-degradation (-1 = none)")
		faultSeed  = flag.Uint64("fault-seed", 0, "seed for the deterministic fault schedules")
		retryMax   = flag.Int("retry-budget", 0, "max attempts per access for transient backend failures (0 = default policy: 4 attempts, 256 retries/query)")
		minTheta   = flag.Float64("min-theta", 0, "weakest accepted θ guarantee when shards are lost (0 = accept any finite θ; requires -shards)")

		traceOut       = flag.String("trace-out", "", "write a traffic trace to this file: generated from the traffic flags, or re-recorded from -trace-in for a round-trip diff")
		traceIn        = flag.String("trace-in", "", "replay the traffic trace in this file against -data and report open-loop latency percentiles and charged cost")
		trafficConfig  = flag.String("traffic-config", "", "JSON traffic config for -trace-out (default: built-in users+crawlers mix)")
		trafficSeed    = flag.Uint64("traffic-seed", 42, "seed for trace generation")
		trafficReqs    = flag.Int("traffic-requests", 1000, "number of requests to generate")
		trafficArrival = flag.String("traffic-arrival", "poisson", "arrival process for the generated users cohort: poisson|diurnal|burst")
		trafficRate    = flag.Float64("traffic-rate", 200, "mean arrival rate in requests/second for the generated mix")
		traceWorkers   = flag.Int("trace-workers", 0, "simulated (and real) server count for open-loop replay (0 = 1)")
		traceBatch     = flag.Int("trace-batch", 0, "shared-scan admission batch size for unsharded replay (0 = 8)")
	)
	flag.Parse()
	if *traceOut != "" && *traceIn == "" {
		// Trace generation needs no database.
		if err := generateTrace(*traceOut, *trafficConfig, *trafficArrival, *trafficSeed, *trafficRate, *trafficReqs); err != nil {
			fatal(err)
		}
		return
	}
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "topk: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	db, err := readDB(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	t, err := aggByName(*aggName, db.M())
	if err != nil {
		fatal(err)
	}
	var backendSpec *repro.BackendSpec
	if *remote {
		backendSpec = &repro.BackendSpec{
			SortedCost:      *cs,
			RandomCost:      *cr,
			Latency:         *latency,
			Jitter:          *jitter,
			StragglerShards: *stragglers,
			StragglerFactor: *stragglerF,
			BatchRTT:        *batchRTT,
			BatchMarginal:   *batchMarg,
		}
	}
	var cacheSpec *repro.CacheSpec
	if *useCache {
		cacheSpec = &repro.CacheSpec{
			PageSize:    *pageSize,
			Pages:       *cachePages,
			ColdPages:   *coldPages,
			ColdHitCost: *coldCost,
			Memo:        *cacheMemo,
		}
	}
	var faultSpec *repro.FaultSpec
	if *faultRate > 0 || *faultBurst > 0 || *faultDead >= 0 {
		faultSpec = &repro.FaultSpec{
			Rate:       *faultRate,
			BurstEvery: *faultBurst,
			DeadList:   *faultDead + 1, // flag is 0-based, spec is 1-based
			Seed:       *faultSeed,
		}
	}
	retry := repro.Retry{MaxAttempts: *retryMax}
	// Resolve the shard count once: the engine build, the query and the
	// banner must all agree on it.
	p := *shards
	if p == repro.AutoShards {
		p = shard.AutoShards(db.N(), *k, runtime.GOMAXPROCS(0))
	}
	if *traceIn != "" {
		err := replayTraceFile(db, *traceIn, *traceOut, repro.ReplayOptions{
			Shards:   p,
			Workers:  *traceWorkers,
			Batch:    *traceBatch,
			Backend:  backendSpec,
			Cache:    cacheSpec,
			Fault:    faultSpec,
			Costs:    repro.CostModel{CS: *cs, CR: *cr},
			Retry:    retry,
			MinTheta: *minTheta,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	opts := repro.Options{
		Algorithm:      repro.AlgorithmName(normalizeAlgo(*algo)),
		Costs:          repro.CostModel{CS: *cs, CR: *cr},
		Theta:          *theta,
		NoRandomAccess: *noRandom,
		CostAwareTA:    *costTA,
		Shards:         p,
		ShardWorkers:   *workers,
		Backend:        backendSpec,
		Cache:          cacheSpec,
		Schedule:       repro.Schedule(*schedule),
		Fault:          faultSpec,
		Retry:          retry,
		MinTheta:       *minTheta,
	}
	var res *repro.Result
	var eng *repro.Sharded
	if cacheSpec != nil && p != 0 {
		// A persistent engine, so the per-shard cache statistics can be
		// reported after the query; the engine fixes the stack.
		eng, err = repro.NewFaultyStack(db, p, backendSpec, faultSpec, cacheSpec)
		if err != nil {
			fatal(err)
		}
		opts.Backend, opts.Fault, opts.Cache = nil, nil, nil
		res, err = repro.QuerySharded(eng, t, *k, opts)
	} else {
		res, err = repro.Query(db, t, *k, opts)
	}
	if err != nil {
		fatal(err)
	}
	engine := normalizeAlgo(*algo)
	if engine == "" {
		engine = string(repro.AlgoTA)
		if *noRandom {
			engine = string(repro.AlgoNRA)
		}
	}
	if *costTA && engine == string(repro.AlgoTA) {
		engine = "cost-aware TA"
	}
	if p >= 1 {
		worker := "TA"
		if *costTA {
			worker = "cost-aware TA"
		}
		if *noRandom || engine == string(repro.AlgoNRA) {
			worker = "NRA"
		}
		if *shards == repro.AutoShards {
			engine = fmt.Sprintf("sharded %s, P=auto(%d)", worker, p)
		} else {
			engine = fmt.Sprintf("sharded %s, P=%d", worker, p)
		}
	}
	fmt.Printf("top %d under %s (%s, N=%d, m=%d):\n", *k, *aggName, engine, db.N(), db.M())
	for i, it := range res.Items {
		if res.GradesExact {
			fmt.Printf("%3d. object %-8d grade %.6g\n", i+1, it.Object, float64(it.Grade))
		} else {
			fmt.Printf("%3d. object %-8d grade in [%.6g, %.6g]\n", i+1, it.Object, float64(it.Lower), float64(it.Upper))
		}
	}
	cm := repro.CostModel{CS: *cs, CR: *cr}
	fmt.Printf("accesses: %d sorted, %d random; middleware cost %.6g (cS=%g, cR=%g)\n",
		res.Stats.Sorted, res.Stats.Random, res.Cost(cm), *cs, *cr)
	if *remote || *useCache {
		fmt.Printf("charged by backends: %.6g sorted + %.6g random = %.6g\n",
			res.Stats.ChargedSorted, res.Stats.ChargedRandom, res.Stats.Charged())
	}
	if eng != nil {
		var agg repro.CacheStats
		for _, cs := range eng.CacheStats() {
			agg.Hits += cs.Hits
			agg.ColdHits += cs.ColdHits
			agg.Misses += cs.Misses
			agg.ProbeHits += cs.ProbeHits
			agg.ProbeMisses += cs.ProbeMisses
			agg.Evictions += cs.Evictions
			agg.HotEvictions += cs.HotEvictions
			agg.ColdEvictions += cs.ColdEvictions
			agg.AdmissionRejects += cs.AdmissionRejects
		}
		total := agg.Hits + agg.ColdHits + agg.Misses
		fmt.Printf("cache: %d/%d sorted hits (%.1f%%: %d hot + %d cold), %d/%d probe hits\n",
			agg.Hits+agg.ColdHits, total, 100*agg.HitRate(), agg.Hits, agg.ColdHits,
			agg.ProbeHits, agg.ProbeHits+agg.ProbeMisses)
		if agg.HotEvictions > 0 || agg.Evictions > 0 {
			fmt.Printf("cache tiers: %d hot evictions (%d rejected by admission), %d cold evictions, %d pages dropped\n",
				agg.HotEvictions, agg.AdmissionRejects, agg.ColdEvictions, agg.Evictions)
		}
	}
	if st := res.Stats; st.Faults > 0 || st.Retries > 0 || st.DeadShards > 0 {
		fmt.Printf("robustness: %d faults, %d retries, %d dead shards\n",
			st.Faults, st.Retries, st.DeadShards)
	}
	if res.Stats.DeadShards > 0 {
		fmt.Printf("degraded answer: θ = %.4g certified by the surviving shards\n", res.Theta)
	} else if res.Theta > 1 {
		fmt.Printf("approximation guarantee: θ = %.4g\n", res.Theta)
	}
}

// normalizeAlgo maps user input to the canonical algorithm names.
func normalizeAlgo(s string) string {
	switch strings.ToLower(s) {
	case "ta":
		return string(repro.AlgoTA)
	case "fa":
		return string(repro.AlgoFA)
	case "nra":
		return string(repro.AlgoNRA)
	case "ca":
		return string(repro.AlgoCA)
	case "naive":
		return string(repro.AlgoNaive)
	case "maxtopk":
		return string(repro.AlgoMaxTopK)
	}
	return s
}

// readDB parses the CSV database format.
func readDB(r io.Reader) (*repro.Database, error) { return model.ReadCSV(r) }

// aggByName resolves an aggregation function by name and arity through the
// shared registry, branding failures with the CLI's error identity.
func aggByName(name string, m int) (repro.AggFunc, error) {
	f, err := agg.ByName(name, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrBadQuery, err)
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topk:", err)
	os.Exit(1)
}
