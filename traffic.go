package repro

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/traffic"
)

// SpecFromTraffic resolves a serialized traffic query spec against a
// database into an executable QuerySpec: the aggregation name becomes an
// AggFunc at the database's arity and the algorithm name selects the engine
// options, layered on top of base (cost model, retry policy, and any other
// per-run options the trace does not carry).
func SpecFromTraffic(db *Database, q traffic.QuerySpec, base Options) (QuerySpec, error) {
	m, _, err := dims(db)
	if err != nil {
		return QuerySpec{}, err
	}
	if err := q.Validate(); err != nil {
		return QuerySpec{}, err
	}
	f, err := agg.ByName(q.Agg, m)
	if err != nil {
		return QuerySpec{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	opts := base
	opts.Theta = q.Theta
	switch q.Algo {
	case "", traffic.AlgoTA:
	case traffic.AlgoCostAwareTA:
		opts.CostAwareTA = true
	case traffic.AlgoNRA:
		opts.Algorithm = AlgoNRA
	default:
		return QuerySpec{}, fmt.Errorf("%w: unknown traffic algorithm %q", ErrBadQuery, q.Algo)
	}
	return QuerySpec{Agg: f, K: q.K, Opts: opts}, nil
}

// ReplayOptions configures an open-loop trace replay.
type ReplayOptions struct {
	// Shards selects the execution engine. Zero replays through the
	// sequential shared-scan executor (BatchQuery); a positive value builds
	// one persistent sharded stack (as NewFaultyStack does) and replays
	// every request through it. θ-requests
	// on the sharded path run exact — an exact answer certifies any
	// requested θ ≥ 1 — and the served certificate is the engine's.
	Shards int
	// Workers is the simulated server count for the queueing model and the
	// real concurrency bound handed to the executor; 0 means 1, and
	// negative values are rejected with ErrBadQuery. Replays
	// meant to be compared access-for-access should keep Workers at 1, which
	// serializes the engine deterministically.
	Workers int
	// Batch is the shared-scan admission size on the sequential path:
	// requests are admitted Batch at a time, each batch sharing one
	// physical scan (default 8). Ignored when Shards > 0.
	Batch int
	// Backend, Cache and Fault configure the access stack under the
	// engine, exactly as the corresponding Options fields do. On the
	// sequential path they are rejected (the shared scan reads the
	// database directly); use Shards ≥ 1 to replay against a stack.
	Backend *BackendSpec
	Cache   *CacheSpec
	Fault   *FaultSpec
	// Costs and Retry apply to every replayed query. Invalid per-run options
	// fail the call with ErrBadQuery before any request runs.
	Costs CostModel
	Retry Retry
	// MinTheta bounds degradation on the sharded path, as Options.MinTheta;
	// the sequential path rejects a non-zero value, as Query does.
	MinTheta float64
}

// ReplayOutcome is one replayed request with its result and simulated
// open-loop timing.
type ReplayOutcome struct {
	Request traffic.Request
	Result  *Result
	Err     error
	// Queue is the simulated wait between the request's arrival and its
	// service start; Service is the measured execution time.
	Queue   time.Duration
	Service time.Duration
}

// LatencyQuantiles summarizes a latency distribution.
type LatencyQuantiles struct {
	P50, P90, P99, Max time.Duration
}

// quantiles computes the summary of a set of durations (nearest-rank).
func quantiles(ds []time.Duration) LatencyQuantiles {
	if len(ds) == 0 {
		return LatencyQuantiles{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return LatencyQuantiles{P50: rank(0.50), P90: rank(0.90), P99: rank(0.99), Max: sorted[len(sorted)-1]}
}

// ReplayReport is the outcome of an open-loop replay: per-request outcomes
// in trace order, queueing and service latency distributions, and the
// aggregate charged middleware cost.
type ReplayReport struct {
	Outcomes []ReplayOutcome
	// Queue and Service summarize the per-request distributions. Queue is
	// simulated virtual time — the replay measures each request's service
	// wall-clock and feeds it to a deterministic multi-server queue at the
	// trace's arrival times, so the open-loop numbers do not depend on host
	// scheduling interleavings.
	Queue   LatencyQuantiles
	Service LatencyQuantiles
	// Charged sums the charged middleware cost over every successful
	// request (Stats.Charged: declared backend prices where present, the
	// cost model elsewhere).
	Charged float64
	// Errors counts failed requests.
	Errors int
}

// servers is the replay's virtual-time queue: w identical servers, each
// busy until its free time. Admission is in arrival order (FIFO), each
// request starting at max(arrival, earliest free server).
type servers struct{ free []time.Duration }

func newServers(w int) *servers {
	if w < 1 {
		w = 1
	}
	return &servers{free: make([]time.Duration, w)}
}

// admit seats a request arriving at `at` whose service takes `d`, returning
// its queueing delay.
func (s *servers) admit(at, d time.Duration) time.Duration {
	best := 0
	for i, f := range s.free {
		if f < s.free[best] {
			best = i
		}
	}
	start := at
	if s.free[best] > start {
		start = s.free[best]
	}
	s.free[best] = start + d
	return start - at
}

// ReplayTrace executes a recorded request stream against db and reports
// open-loop per-request latencies and aggregate charged cost. Execution is
// deterministic given the trace and options: results, errors and Stats
// depend only on the specs, and queueing is simulated in virtual time from
// the trace's arrival offsets and the measured service times.
func ReplayTrace(db *Database, reqs []traffic.Request, opts ReplayOptions) (*ReplayReport, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("%w: replay shard count must be non-negative, got %d", ErrBadQuery, opts.Shards)
	}
	if opts.Batch < 0 {
		return nil, fmt.Errorf("%w: replay batch size must be non-negative, got %d", ErrBadQuery, opts.Batch)
	}
	// The per-run options are resolved once, before any request runs: on
	// the shared scan when Shards is 0, for a stack built once otherwise.
	base := Options{Costs: opts.Costs, Retry: opts.Retry, ShardWorkers: opts.Workers, MinTheta: opts.MinTheta}
	run := base
	run.Shards, run.Backend, run.Cache, run.Fault = opts.Shards, opts.Backend, opts.Cache, opts.Fault
	pl, err := resolve(target{db: db, batch: opts.Shards == 0}, run)
	if err != nil {
		return nil, err
	}
	specs := make([]QuerySpec, len(reqs))
	for i, req := range reqs {
		spec, err := SpecFromTraffic(db, req.Spec, base)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", req.Seq, err)
		}
		specs[i] = spec
	}

	rep := &ReplayReport{Outcomes: make([]ReplayOutcome, len(reqs))}
	for i, req := range reqs {
		rep.Outcomes[i].Request = req
	}
	if pl.shards > 0 {
		eng, err := newShardedStack(db, pl.shards, opts.Backend, opts.Fault, opts.Cache, pl.costs)
		if err != nil {
			return nil, err
		}
		replaySharded(eng, reqs, specs, opts.Workers, rep)
	} else {
		replayBatched(db, reqs, specs, opts, rep)
	}

	queues := make([]time.Duration, 0, len(reqs))
	services := make([]time.Duration, 0, len(reqs))
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		queues = append(queues, o.Queue)
		services = append(services, o.Service)
		if o.Err != nil {
			rep.Errors++
			continue
		}
		if o.Result != nil {
			rep.Charged += o.Result.Stats.Charged()
		}
	}
	rep.Queue = quantiles(queues)
	rep.Service = quantiles(services)
	return rep, nil
}

// replayBatched is the sequential path: requests are admitted to the shared
// scan Batch at a time. A batch starts once its last request has arrived
// and the scan is free — the queueing delay of a request therefore includes
// the time it spends waiting for its batch to fill, which is the real price
// of batching under open-loop load.
func replayBatched(db *Database, reqs []traffic.Request, specs []QuerySpec, opts ReplayOptions, rep *ReplayReport) {
	batch := opts.Batch
	if batch == 0 {
		batch = 8
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	var scanFree time.Duration
	for lo := 0; lo < len(reqs); lo += batch {
		hi := lo + batch
		if hi > len(reqs) {
			hi = len(reqs)
		}
		t0 := time.Now()
		br := BatchQuery(db, specs[lo:hi], workers)
		service := time.Since(t0)

		start := reqs[hi-1].At // the batch cannot form before its last arrival
		if scanFree > start {
			start = scanFree
		}
		scanFree = start + service
		per := service / time.Duration(hi-lo)
		for i := lo; i < hi; i++ {
			out := br.Outcomes[i-lo]
			rep.Outcomes[i].Result = out.Result
			rep.Outcomes[i].Err = out.Err
			rep.Outcomes[i].Queue = start - reqs[i].At
			rep.Outcomes[i].Service = per
		}
	}
}

// replaySharded replays every request through the run's persistent
// sharded stack, measuring per-request service time and simulating a
// workers-server queue at the trace's arrival times. A θ-request runs
// exact: an exact answer certifies any requested θ ≥ 1.
func replaySharded(eng *Sharded, reqs []traffic.Request, specs []QuerySpec, workers int, rep *ReplayReport) {
	q := newServers(workers)
	for i, spec := range specs {
		opts := spec.Opts
		opts.Theta = 0
		t0 := time.Now()
		res, err := QuerySharded(eng, spec.Agg, spec.K, opts)
		service := time.Since(t0)
		rep.Outcomes[i].Result = res
		rep.Outcomes[i].Err = err
		rep.Outcomes[i].Service = service
		rep.Outcomes[i].Queue = q.admit(reqs[i].At, service)
	}
}
