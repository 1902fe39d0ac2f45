package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// workers is the executor concurrency on every workload and every host: it
// is the core count of the 2-core host the benchmark was sized on, and a
// fixed value keeps figures from different hosts comparable (the host
// record printed with every result gives the actual core count).
const workers = 2

// workloadDef is one benchmark workload: a generated database, a two-cohort
// open-loop trace, the executor that replays it, and the latency limit its
// capacity is judged against.
type workloadDef struct {
	name string

	// Database: independent uniform grades, or Zipf grades when zipfSkew > 0.
	n, m     int
	zipfSkew float64

	// Traffic: Poisson users drawing from a repeat-heavy pool and Poisson
	// crawlers drawing one-shot specs. The offered rate is their sum.
	usersRate, crawlersRate float64
	users, crawlers         traffic.Population
	// A run replays independent rounds of the workload (see rounds), each
	// with its own database and a trace of requests requests, of which the
	// first warmup warm pools and caches and are left out of every metric.
	// On the shared scan both counts are multiples of batch, so batches
	// align with rounds.
	requests, warmup int

	// Executor: the shared-scan path when shards is 0 (batches of batch
	// requests), else a persistent sharded stack of shards shards.
	shards  int
	batch   int
	backend *repro.BackendSpec
	fault   *repro.FaultSpec
	cache   *repro.CacheSpec

	// limit is the sojourn p99 that capacity_rps must meet.
	limit time.Duration
}

// offered is the trace's nominal arrival rate, the fixed rate
// sojourn_p99_ms is reported at.
func (w *workloadDef) offered() float64 { return w.usersRate + w.crawlersRate }

var workloads = []*workloadDef{
	// The only workload where access.SharedScan and the sequential
	// single-step TA/TAθ loop do the work. The shard layer, the cache,
	// Remote and Faulty are idle, so a change to any of them must predict
	// no change here. Its sojourn is mostly batch-fill wait.
	{
		name: "scan-ta",
		n:    50000, m: 3,
		usersRate: 40, crawlersRate: 9,
		users: traffic.Population{Kind: traffic.PopZipfRepeat, PoolSize: userPool,
			Ks: []int{5, 10, 20}, Aggs: []string{"avg", "min", "sum"}, Algos: []string{traffic.AlgoTA}},
		crawlers: traffic.Population{Kind: traffic.PopCrawler,
			Ks: []int{5, 10, 20}, Aggs: []string{"avg", "min", "sum"}, Algos: []string{traffic.AlgoTA},
			Thetas: []float64{0, 1.5}},
		requests: 504, warmup: 48,
		batch: 8,
		limit: time.Second,
	},
	// Sorted-only deep scans put the work in the shard coordinator
	// (publish, merge, OrderedCands), NRA's bound bookkeeping and
	// per-query allocation. No random access and no backend stack.
	{
		name: "sharded-nra",
		n:    50000, m: 3,
		usersRate: 10, crawlersRate: 2,
		users: traffic.Population{Kind: traffic.PopZipfRepeat, PoolSize: userPool,
			Ks: []int{5, 7, 10, 14, 20}, Aggs: []string{"avg", "min", "sum"}, Algos: []string{traffic.AlgoNRA}},
		crawlers: traffic.Population{Kind: traffic.PopCrawler,
			Ks: []int{30, 40, 50}, Aggs: []string{"avg", "min", "sum"}, Algos: []string{traffic.AlgoNRA}},
		requests: 352, warmup: 40,
		shards: 4,
		limit:  time.Second,
	},
	// The only workload that runs the cache tiers, admission and the probe
	// memo, Remote accounting, the fallible/retry path and CostAwareTA's
	// planner; the shard layer runs in TA mode and core TA reads through
	// the stack. Remote declares cS=1, cR=4 and no latency, so timings
	// measure the program rather than sleeps. The cache holds the users'
	// sorted pages but not the crawlers' deep scans: users land at p50 and
	// crawlers at p99, so a cache change and a planner change move
	// different metrics.
	{
		name: "stack-mixed",
		n:    100000, m: 3, zipfSkew: 1.2,
		usersRate: 9.6, crawlersRate: 0.4,
		users: traffic.Population{Kind: traffic.PopZipfRepeat, PoolSize: userPool,
			Ks: []int{5, 7, 10, 14, 20}, Aggs: []string{"avg", "min", "sum"}, Algos: []string{traffic.AlgoTA}},
		crawlers: traffic.Population{Kind: traffic.PopCrawler,
			Ks: []int{200, 250, 300}, Aggs: []string{"avg", "sum"}, Algos: []string{traffic.AlgoCostAwareTA}},
		requests: 500, warmup: 100,
		shards:  4,
		backend: &repro.BackendSpec{SortedCost: 1, RandomCost: 4},
		fault:   &repro.FaultSpec{Rate: 0.001},
		cache:   &repro.CacheSpec{PageSize: 64, Pages: 32, ColdPages: 96, Memo: 32768},
		limit:   2 * time.Second,
	},
}

// userPool is the users' spec pool size. Popularity over the pool is
// Zipf-shaped (traffic's default skew), but the pool is large next to the
// parameter grid, so the users' mix over the grid barely moves from seed
// to seed and the metrics compare across seeds.
const userPool = 1024

// secondsPerRound sizes a run: one round per this many seconds of the time
// budget. Each workload's round is sized to replay in about 4 seconds on
// the 2-core host the benchmark was tuned on; the rest covers set-up.
const secondsPerRound = 5

// rounds is how many rounds a run with the given time budget replays. Each
// round is an independent instance — its own database and trace — so the
// run's figures average over databases instead of following one
// database's quirks.
func rounds(budget time.Duration) int {
	return max(1, int((budget+secondsPerRound*time.Second/2)/(secondsPerRound*time.Second)))
}

func lookup(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// database generates the workload's database from the seed.
func (w *workloadDef) database(seed uint64) (*repro.Database, error) {
	spec := workload.Spec{N: w.n, M: w.m, Seed: int64(seed)}
	if w.zipfSkew > 0 {
		return workload.Zipf(spec, w.zipfSkew)
	}
	return workload.IndependentUniform(spec)
}

// trace generates the workload's request stream from the seed and
// round-trips it through the versioned JSONL trace format, returning the
// replayed stream — the requests a recorded trace file would deliver.
//
// Each cohort is a Poisson stream conditioned on its request count: the
// cohort's share of the trace is fixed rather than drawn, so the cohorts'
// mix — which sets most metrics — does not move from seed to seed.
func (w *workloadDef) trace(seed uint64) ([]traffic.Request, error) {
	horizon := time.Duration(float64(w.requests) / w.offered() * float64(time.Second))
	nUsers := int(float64(w.requests)*w.usersRate/w.offered() + 0.5)
	users, err := cohortStream(seed, "users", w.usersRate, w.users, nUsers, horizon)
	if err != nil {
		return nil, err
	}
	crawlers, err := cohortStream(seed^0x9e3779b97f4a7c15, "crawlers", w.crawlersRate, w.crawlers, w.requests-nUsers, horizon)
	if err != nil {
		return nil, err
	}
	reqs := append(users, crawlers...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
	for i := range reqs {
		reqs[i].Seq = i
	}
	rec := traffic.RecordBytes(reqs)
	back, err := traffic.Replay(bytes.NewReader(rec))
	if err != nil {
		return nil, fmt.Errorf("trace round trip: %w", err)
	}
	if !bytes.Equal(traffic.RecordBytes(back), rec) {
		return nil, fmt.Errorf("trace round trip is not byte-identical")
	}
	return back, nil
}

// cohortStream generates n requests of one cohort whose arrivals are a
// Poisson process conditioned on n arrivals within horizon. Given the
// (n+1)-th arrival at T, the first n arrivals of a Poisson process are
// uniform order statistics on [0, T], so scaling them by horizon/T yields
// exactly that conditioned process.
func cohortStream(seed uint64, name string, rate float64, pop traffic.Population, n int, horizon time.Duration) ([]traffic.Request, error) {
	reqs, err := traffic.Generate(traffic.Config{
		Seed:        seed,
		MaxRequests: n + 1,
		Cohorts:     []traffic.Cohort{{Name: name, Arrival: traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, Rate: rate}, Population: pop}},
	})
	if err != nil {
		return nil, err
	}
	scale := float64(horizon) / float64(reqs[n].At)
	reqs = reqs[:n]
	for i := range reqs {
		reqs[i].At = time.Duration(float64(reqs[i].At) * scale)
	}
	return reqs, nil
}

// replayOptions is the executor configuration ReplayTrace runs the workload
// with. The fault seed follows the run seed so the fault schedule is part
// of the generated input.
func (w *workloadDef) replayOptions(seed uint64, workers int) repro.ReplayOptions {
	ro := repro.ReplayOptions{Shards: w.shards, Workers: workers, Batch: w.batch, Backend: w.backend, Cache: w.cache}
	if w.fault != nil {
		f := *w.fault
		f.Seed = seed
		ro.Fault = &f
	}
	return ro
}
