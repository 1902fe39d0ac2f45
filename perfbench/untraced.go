package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/traffic"
)

// inputs is one round of a run: a database and trace generated from the
// round's seed, the answer oracle over them, and the measured cost of
// setting them up. A run replays several rounds, each an independent
// instance of the workload, so one database's quirks do not set the run's
// figures.
type inputs struct {
	seed   uint64
	db     *repro.Database
	reqs   []traffic.Request
	oracle *oracle
	// setup is the time to generate the database, generate the trace and
	// round-trip it through JSONL, and run ReplayTrace's work beyond
	// request service on a one-request trace: partitioning and building
	// the stack.
	setup time.Duration
}

// roundSeed derives round r's seed; round 0 runs on the run's seed itself.
func roundSeed(seed uint64, r int) uint64 { return seed ^ uint64(r)*0x9e3779b97f4a7c15 }

// prepare generates round r of a run and measures its set-up.
func prepare(w *workloadDef, seed uint64, r int) (*inputs, error) {
	in := &inputs{seed: roundSeed(seed, r)}
	t0 := time.Now()
	db, err := w.database(in.seed)
	if err != nil {
		return nil, fmt.Errorf("database: %w", err)
	}
	reqs, err := w.trace(in.seed)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rep, err := repro.ReplayTrace(db, reqs[:1], w.replayOptions(in.seed, workers))
	if err != nil {
		return nil, err
	}
	in.setup = time.Since(t0) - rep.Outcomes[0].Service
	in.db, in.reqs = db, reqs
	if in.oracle, err = newOracle(db, reqs); err != nil {
		return nil, err
	}
	return in, nil
}

// replayRep is one full ReplayTrace of a round's trace.
type replayRep struct {
	outcomes []repro.ReplayOutcome
	alloc    uint64 // heap bytes allocated during the replay
	wrong    int    // errors plus answers the oracle rejected
	errs     []string
}

func replayOnce(w *workloadDef, in *inputs, nworkers int, reqs []traffic.Request) (*replayRep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := repro.ReplayTrace(in.db, reqs, w.replayOptions(in.seed, nworkers))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r := &replayRep{outcomes: rep.Outcomes, alloc: m1.TotalAlloc - m0.TotalAlloc}
	for _, o := range rep.Outcomes {
		if err := answerErr(in.oracle, o.Request, o.Result, o.Err); err != nil {
			r.wrong++
			r.errs = append(r.errs, err.Error())
		}
	}
	return r, nil
}

// answerErr is the request's failure, if any: its execution error or the
// oracle's rejection of its answer.
func answerErr(o *oracle, req traffic.Request, res *repro.Result, err error) error {
	if err != nil {
		return fmt.Errorf("request %d: %w", req.Seq, err)
	}
	if res == nil {
		return fmt.Errorf("request %d: no result", req.Seq)
	}
	if err := o.check(req.Spec, res); err != nil {
		return fmt.Errorf("request %d: %w", req.Seq, err)
	}
	return nil
}

// series is the measured requests of a run's rounds joined into one
// virtual trace: each round's arrivals, rebased to its first measured
// arrival, follow the previous round's last arrival after one mean
// inter-arrival gap. Every round's measured count is a multiple of the
// shared-scan batch, so batches never straddle rounds.
type series struct{ at, service []time.Duration }

// add appends a replay's measured requests, leaving out its warm-up prefix.
func (s *series) add(w *workloadDef, outs []repro.ReplayOutcome) {
	ms := outs[w.warmup:]
	var off time.Duration
	if n := len(s.at); n > 0 {
		off = s.at[n-1] + time.Duration(float64(time.Second)/w.offered())
	}
	for _, o := range ms {
		s.at = append(s.at, off+o.Request.At-ms[0].Request.At)
		s.service = append(s.service, o.Service)
	}
}

// maxSteal is the share of the host's CPU time the hypervisor may steal
// during a replay before the replay is repeated: on a shared host, stolen
// time lands in whatever service times it overlaps, and the two workers'
// lock hand-offs make the shared scan especially sensitive to it.
const maxSteal = 0.03

// runUntraced measures the end-to-end metrics from repro.ReplayTrace. It
// generates and replays the rounds one at a time, so only one round's
// database is live. A replay during which the host stole more than
// maxSteal of the CPU time is repeated, up to twice and while the run
// stays within 1.25 times its budget; each request then keeps its fastest
// service time, and the counts come from the least disturbed replay.
// Latencies and the queue model pool every round's kept replay.
func runUntraced(w *workloadDef, seed uint64, budget time.Duration) (*report, error) {
	rp := newReport()
	var (
		all             series
		alloc           uint64
		charged         float64
		replayed, count int
		setups, steals  []float64
		repeats         int
	)
	start := time.Now()
	nr := rounds(budget)
	for r := 0; r < nr; r++ {
		in, err := prepare(w, seed, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
		var kept *replayRep
		keptSteal := 2.0
		for attempt := 0; ; attempt++ {
			s0 := readSteal()
			t0 := time.Now()
			rep, err := replayOnce(w, in, workers, in.reqs)
			if err != nil {
				return nil, err
			}
			steal := s0.fraction(readSteal())
			rp.attempted += len(rep.outcomes)
			rp.failed += rep.wrong
			rp.notes = append(rp.notes, rep.errs...)
			if kept != nil {
				// Steal hits requests at random, so each request keeps
				// the fastest of its replays' service times.
				for i := range rep.outcomes {
					o, k := &rep.outcomes[i], &kept.outcomes[i]
					if steal < keptSteal {
						o.Service = min(o.Service, k.Service)
					} else {
						k.Service = min(o.Service, k.Service)
					}
				}
			}
			if steal < keptSteal {
				kept, keptSteal = rep, steal
			}
			if steal <= maxSteal || attempt == 2 || time.Since(start)+time.Since(t0) > budget*5/4 {
				break
			}
			repeats++
		}
		steals = append(steals, keptSteal)
		all.add(w, kept.outcomes)
		alloc += kept.alloc
		replayed += len(kept.outcomes)
		for _, o := range kept.outcomes[w.warmup:] {
			if o.Err == nil && o.Result != nil {
				charged += o.Result.Stats.Charged()
				count++
			}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := len(all.service)

	rp.add("capacity_rps", capacity(all.at, all.service, w.batch, w.offered(), w.limit), "req/s")
	rp.add("sojourn_p99_ms", ms(quantile(simulate(all.at, all.service, w.batch).sojourn, 0.99)), "ms")
	rp.add("service_p50_ms", ms(quantile(all.service, 0.50)), "ms")
	rp.add("service_p99_ms", ms(quantile(all.service, 0.99)), "ms")
	rp.add("charged_per_query", charged/float64(max(count, 1)), "cost")
	rp.add("alloc_kb_per_query", float64(alloc)/1024/float64(max(replayed, 1)), "KB")
	rp.add("peak_heap_mb", float64(mem.HeapSys)/(1<<20), "MB")
	rp.add("setup_s", median(setups), "s")
	rp.info = append(rp.info,
		fmt.Sprintf("rounds=%d measured_requests=%d (%d beyond p99) repeated_replays=%d host_steal_per_round=%.3f",
			nr, n, n-int(0.99*float64(n)+0.5), repeats, steals),
		fmt.Sprintf("offered_rps=%g latency_limit_ms=%g failed_frac=%g", w.offered(), ms(w.limit), float64(rp.failed)/float64(max(rp.attempted, 1))),
	)
	return rp, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
