package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/traffic"
)

// fidelityRequests is the trace prefix the traced run also replays at one
// worker, where execution is deterministic, to check that the traced stack
// answers exactly like the untraced executor.
const fidelityRequests = 160

// tracedStack is the workload's executor stack rebuilt in this package from
// public constructors, with a timing shim at every layer boundary.
type tracedStack struct {
	eng    *repro.Sharded         // sharded workloads
	lists  []access.ListSource    // shared-scan workload: the shimmed database lists
	accs   [][numLayers]*layerAcc // per shard; nil where the layer is absent
	faulty []*faultyShim
	build  time.Duration // partitioning and wrapping
}

// buildTraced mirrors what repro.ReplayTrace builds: the database's lists
// for the shared scan, or a Partition into w.shards shards each fronted by
// Remote → Faulty → Cache as configured, with repro's per-shard backend
// seeds and per-list fault seeds.
func buildTraced(db *repro.Database, w *workloadDef, seed uint64) (*tracedStack, error) {
	t0 := time.Now()
	ts := &tracedStack{}
	if w.shards == 0 {
		acc := &layerAcc{}
		ts.accs = [][numLayers]*layerAcc{{layerModel: acc}}
		for i := 0; i < db.M(); i++ {
			ts.lists = append(ts.lists, &modelShim{List: db.List(i), acc: acc})
		}
		ts.build = time.Since(t0)
		return ts, nil
	}
	dbs, err := db.Partition(w.shards)
	if err != nil {
		return nil, err
	}
	ts.accs = make([][numLayers]*layerAcc, len(dbs))
	backends := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		accs := &ts.accs[s]
		accs[layerModel] = &layerAcc{}
		lists := make([]access.ListSource, sdb.M())
		for i := range lists {
			lists[i] = &modelShim{List: sdb.List(i), acc: accs[layerModel]}
		}
		if b := w.backend; b != nil {
			accs[layerRemote] = &layerAcc{}
			cm := access.CostModel{CS: b.SortedCost, CR: b.RandomCost}
			// repro.BackendSpec's per-shard jitter seed; the workload
			// declares no latency, so no straggler or batch settings apply.
			lat := access.Latency{Sorted: b.Latency, Random: b.Latency, Jitter: b.Jitter, Seed: b.Seed + uint64(s)*0x9e37}
			for i := range lists {
				lists[i] = &remoteShim{Remote: access.NewRemote(lists[i], cm, lat), acc: accs[layerRemote]}
			}
		}
		if f := w.fault; f != nil {
			accs[layerFaulty] = &layerAcc{}
			for i := range lists {
				// repro.FaultSpec's per-list seed decorrelation.
				plan := access.FaultPlan{
					Seed: seed ^ (uint64(s*sdb.M()+i)+1)*0x9e3779b97f4a7c15,
					Rate: f.Rate, BurstEvery: f.BurstEvery, BurstLen: f.BurstLen, Hang: f.Hang,
				}
				fs := &faultyShim{Faulty: access.NewFaulty(lists[i], plan), acc: accs[layerFaulty]}
				ts.faulty = append(ts.faulty, fs)
				lists[i] = fs
			}
		}
		backends[s] = shard.ShardBackend{DB: sdb, Lists: lists}
		if c := w.cache; c != nil {
			accs[layerCache] = &layerAcc{}
			cache := access.NewCache(access.CacheConfig{
				PageSize: c.PageSize, Pages: c.Pages, ColdPages: c.ColdPages, ColdHitCost: c.ColdHitCost, Memo: c.Memo,
			})
			for i, l := range access.WrapLists(cache, lists) {
				lists[i] = &cacheShim{cachedView: l.(cachedView), acc: accs[layerCache]}
			}
			backends[s].Cache = cache
		}
	}
	ts.eng, err = shard.FromBackends(backends)
	ts.build = time.Since(t0)
	return ts, err
}

// harvest collects every shard's layer accumulators.
func (ts *tracedStack) harvest() [][numLayers]layerSnap {
	out := make([][numLayers]layerSnap, len(ts.accs))
	for s := range ts.accs {
		for l, acc := range ts.accs[s] {
			if acc != nil {
				out[s][l] = acc.harvest()
			}
		}
	}
	return out
}

func (ts *tracedStack) injected() int64 {
	var n int64
	for _, f := range ts.faulty {
		n += f.Injected()
	}
	return n
}

// served is one request as a traced replay executed it.
type served struct {
	res     *repro.Result
	err     error
	start   int64         // dispatch, ns since epoch
	service time.Duration // wall time; the shared scan's batch wall time / batch size
	run     time.Duration // worker time: Σ shard Elapsed, or the query's own Run
	shards  []repro.ShardStat
	cache   access.CacheStats // delta over every shard's cache
	faults  int64             // failures the fault injectors raised
	layers  [][numLayers]layerSnap
}

// batchSnap is one shared-scan batch of a traced replay.
type batchSnap struct {
	lo, hi     int
	start, end int64
	scan       access.Stats
	peak       int
	layers     [numLayers]layerSnap
}

// serveSharded drives each request through eng the way repro.ReplayTrace
// does — repro.SpecFromTraffic, then Sharded.Query with the ShardOptions
// ReplayTrace sets — plus OnShardStats, calling after once per request.
func serveSharded(db *repro.Database, eng *repro.Sharded, reqs []traffic.Request, nworkers int, after func(*served)) ([]served, error) {
	out := make([]served, len(reqs))
	for i, req := range reqs {
		spec, err := repro.SpecFromTraffic(db, req.Spec, repro.Options{})
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", req.Seq, err)
		}
		o := &out[i]
		so := repro.ShardOptions{
			Workers:        nworkers,
			CostAwareTA:    spec.Opts.CostAwareTA,
			NoRandomAccess: spec.Opts.Algorithm == repro.AlgoNRA,
			Costs:          access.UnitCosts, // ReplayTrace's resolved zero cost model
			OnShardStats:   func(ss []repro.ShardStat) { o.shards = ss },
		}
		before := sumCache(eng.CacheStats())
		o.start = now()
		t0 := time.Now()
		o.res, o.err = eng.Query(spec.Agg, spec.K, so)
		o.service = time.Since(t0)
		o.cache = cacheDelta(sumCache(eng.CacheStats()), before)
		for _, st := range o.shards {
			o.run += st.Elapsed
		}
		if after != nil {
			after(o)
		}
	}
	return out, nil
}

// algorithm is repro's resolution of a traced request's algorithm.
func algorithm(spec repro.QuerySpec) core.Algorithm {
	switch {
	case spec.Opts.Algorithm == repro.AlgoNRA:
		return &core.NRA{}
	case spec.Opts.CostAwareTA:
		return &core.CostAwareTA{Costs: access.UnitCosts}
	default:
		return &core.TA{Theta: spec.Opts.Theta}
	}
}

// serveBatched drives the shared-scan executor the way repro.BatchQuery
// does: batch requests at a time attach to one SharedScan over lists and
// run on nworkers workers, each releasing its consumer when done.
func serveBatched(db *repro.Database, lists []access.ListSource, reqs []traffic.Request, batch, nworkers int, after func(*batchSnap)) ([]served, error) {
	out := make([]served, len(reqs))
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		specs := make([]repro.QuerySpec, hi-lo)
		for j := range specs {
			spec, err := repro.SpecFromTraffic(db, reqs[lo+j].Spec, repro.Options{})
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", reqs[lo+j].Seq, err)
			}
			specs[j] = spec
		}
		b := batchSnap{lo: lo, hi: hi, start: now()}
		t0 := time.Now()
		scan := access.NewSharedScan(lists)
		srcs := make([]*access.Source, len(specs))
		releases := make([]func(), len(specs))
		for j := range specs {
			srcs[j], releases[j] = scan.Attach(access.AllowAll)
		}
		shard.ForEach(len(specs), nworkers, func(j int) {
			defer releases[j]()
			o := &out[lo+j]
			o.start = now()
			o.res, o.err = algorithm(specs[j]).Run(srcs[j], specs[j].Agg, specs[j].K)
			o.run = time.Duration(now() - o.start)
		})
		per := time.Since(t0) / time.Duration(len(specs))
		b.end = now()
		for j := lo; j < hi; j++ {
			out[j].service = per
		}
		b.scan, b.peak = scan.Stats(), scan.PeakWindow()
		if after != nil {
			after(&b)
		}
	}
	return out, nil
}

func sumCache(cs []repro.CacheStats) access.CacheStats {
	var t access.CacheStats
	for _, c := range cs {
		t.Hits += c.Hits
		t.ColdHits += c.ColdHits
		t.Misses += c.Misses
		t.ProbeHits += c.ProbeHits
		t.ProbeMisses += c.ProbeMisses
		t.Evictions += c.Evictions
		t.HotEvictions += c.HotEvictions
		t.ColdEvictions += c.ColdEvictions
		t.AdmissionRejects += c.AdmissionRejects
		t.ChargedSaved += c.ChargedSaved
	}
	return t
}

func cacheDelta(a, b access.CacheStats) access.CacheStats {
	return access.CacheStats{
		Hits: a.Hits - b.Hits, ColdHits: a.ColdHits - b.ColdHits, Misses: a.Misses - b.Misses,
		ProbeHits: a.ProbeHits - b.ProbeHits, ProbeMisses: a.ProbeMisses - b.ProbeMisses,
		Evictions: a.Evictions - b.Evictions, HotEvictions: a.HotEvictions - b.HotEvictions,
		ColdEvictions: a.ColdEvictions - b.ColdEvictions, AdmissionRejects: a.AdmissionRejects - b.AdmissionRejects,
		ChargedSaved: a.ChargedSaved - b.ChargedSaved,
	}
}

// tracedRun is one traced replay.
type tracedRun struct {
	layers  []layer       // the stack's layers, bottom to top
	build   time.Duration // the stack's build time
	served  []served
	batches []batchSnap
}

// replayTraced replays reqs through a freshly built traced stack.
func replayTraced(w *workloadDef, in *inputs, nworkers int, reqs []traffic.Request) (*tracedRun, error) {
	ts, err := buildTraced(in.db, w, in.seed)
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{layers: present(ts.accs[0]), build: ts.build}
	ts.harvest() // drop anything recorded while building
	if w.shards == 0 {
		tr.served, err = serveBatched(in.db, ts.lists, reqs, w.batch, nworkers, func(b *batchSnap) {
			b.layers = ts.harvest()[0]
			tr.batches = append(tr.batches, *b)
		})
		return tr, err
	}
	var faults int64
	tr.served, err = serveSharded(in.db, ts.eng, reqs, nworkers, func(o *served) {
		o.layers = ts.harvest()
		n := ts.injected()
		o.faults, faults = n-faults, n
	})
	return tr, err
}

// fidelity replays the prefix at one worker through repro.ReplayTrace and
// through the traced stack and reports every request whose answer or Stats
// differ. Stacks with a cache are also replayed through a stack built by
// repro.NewFaultyStack and driven like the traced one, whose per-request
// cache counters must equal the traced stack's.
func fidelity(w *workloadDef, in *inputs, prefix []traffic.Request) (mismatches []string, attempted int, err error) {
	ro := w.replayOptions(in.seed, 1)
	ref, err := repro.ReplayTrace(in.db, prefix, ro)
	if err != nil {
		return nil, 0, err
	}
	tr, err := replayTraced(w, in, 1, prefix)
	if err != nil {
		return nil, 0, err
	}
	attempted = 2 * len(prefix)
	for i, o := range ref.Outcomes {
		if d := diffOutcome(o.Result, o.Err, tr.served[i].res, tr.served[i].err); d != "" {
			mismatches = append(mismatches, fmt.Sprintf("fidelity: request %d: traced vs ReplayTrace: %s", i, d))
		}
	}
	if w.cache == nil {
		return mismatches, attempted, nil
	}
	eng, err := repro.NewFaultyStack(in.db, w.shards, ro.Backend, ro.Fault, ro.Cache)
	if err != nil {
		return nil, 0, err
	}
	pub, err := serveSharded(in.db, eng, prefix, 1, nil)
	if err != nil {
		return nil, 0, err
	}
	attempted += len(prefix)
	for i := range pub {
		if d := diffOutcome(pub[i].res, pub[i].err, tr.served[i].res, tr.served[i].err); d != "" {
			mismatches = append(mismatches, fmt.Sprintf("fidelity: request %d: traced vs NewFaultyStack: %s", i, d))
		}
		if pub[i].cache != tr.served[i].cache {
			mismatches = append(mismatches, fmt.Sprintf("fidelity: request %d: cache counters %+v, want %+v", i, tr.served[i].cache, pub[i].cache))
		}
	}
	return mismatches, attempted, nil
}

// diffOutcome describes how two executions of one request differ: error
// presence, answer items, exactness, θ or access Stats; "" when equal.
func diffOutcome(want *repro.Result, wantErr error, got *repro.Result, gotErr error) string {
	switch {
	case (wantErr != nil) != (gotErr != nil):
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case wantErr != nil:
		return ""
	case !reflect.DeepEqual(got.Items, want.Items):
		return fmt.Sprintf("items %v, want %v", got.Items, want.Items)
	case got.GradesExact != want.GradesExact || got.Theta != want.Theta:
		return fmt.Sprintf("exact=%v θ=%v, want exact=%v θ=%v", got.GradesExact, got.Theta, want.GradesExact, want.Theta)
	case !reflect.DeepEqual(got.Stats, want.Stats):
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	return ""
}

// tracedRound is one round of a traced run: its trace, the traced replay,
// the untraced replay's measured service times (the overhead baseline) and
// the sequential sorted-access counts per spec.
type tracedRound struct {
	reqs     []traffic.Request
	tr       *tracedRun
	baseline []time.Duration
	seq      map[traffic.QuerySpec]int64
}

// runTraced measures the per-layer metrics: the fidelity check at one
// worker on round 0, then per round one untraced replay as the overhead
// baseline and one traced replay whose spans and counters give every
// layer's share.
func runTraced(w *workloadDef, seed uint64, budget time.Duration, out string) (*report, error) {
	rp := newReport()
	cc := calibrate()
	var (
		trs    []tracedRound
		prefix int
	)
	// Every round is replayed twice here, untraced and traced, so the
	// traced run covers half the rounds an untraced run of the same budget
	// does.
	nr := rounds(budget / 2)
	for r := 0; r < nr; r++ {
		in, err := prepare(w, seed, r)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			prefix = min(len(in.reqs), fidelityRequests)
			mism, n, err := fidelity(w, in, in.reqs[:prefix])
			if err != nil {
				return nil, err
			}
			rp.attempted += n
			rp.failed += len(mism)
			rp.notes = append(rp.notes, mism...)
		}
		base, err := replayOnce(w, in, workers, in.reqs)
		if err != nil {
			return nil, err
		}
		rp.attempted += len(base.outcomes)
		rp.failed += base.wrong
		rp.notes = append(rp.notes, base.errs...)
		var bs series
		bs.add(w, base.outcomes)

		tr, err := replayTraced(w, in, workers, in.reqs)
		if err != nil {
			return nil, err
		}
		rp.attempted += len(tr.served)
		for i, o := range tr.served {
			if err := answerErr(in.oracle, in.reqs[i], o.res, o.err); err != nil {
				rp.failed++
				rp.notes = append(rp.notes, "traced "+err.Error())
			}
		}
		seq, err := sequentialSorted(w, in)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tracedRound{reqs: in.reqs, tr: tr, baseline: bs.service, seq: seq})
	}
	layerMetrics(rp, w, trs, cc)
	rp.info = append(rp.info,
		fmt.Sprintf("rounds=%d fidelity_requests=%d (one worker) measured_requests=%d clock_read_ns=%.1f shim_call_ns=%.1f",
			nr, prefix, nr*(w.requests-w.warmup), cc.read, cc.call))
	path, err := writeSpans(out, w, seed, trs, cc)
	if err != nil {
		return nil, err
	}
	rp.info = append(rp.info, "spans: "+path)
	return rp, nil
}

// sequentialSorted runs each distinct request spec of a sharded workload
// once on the sequential path over the plain database, for
// shard.sorted_vs_seq. Cost-aware TA plans with the stack's declared costs.
func sequentialSorted(w *workloadDef, in *inputs) (map[traffic.QuerySpec]int64, error) {
	if w.shards == 0 {
		return nil, nil
	}
	base := repro.Options{}
	if w.backend != nil {
		base.Costs = repro.CostModel{CS: w.backend.SortedCost, CR: w.backend.RandomCost}
	}
	out := map[traffic.QuerySpec]int64{}
	for _, r := range in.reqs {
		if _, done := out[r.Spec]; done {
			continue
		}
		spec, err := repro.SpecFromTraffic(in.db, r.Spec, base)
		if err != nil {
			return nil, err
		}
		res, err := repro.Query(in.db, spec.Agg, spec.K, spec.Opts)
		if err != nil {
			return nil, fmt.Errorf("sequential %+v: %w", r.Spec, err)
		}
		out[r.Spec] = res.Stats.Sorted
	}
	return out, nil
}

// present lists the layers a shard's stack has, bottom to top.
func present(accs [numLayers]*layerAcc) []layer {
	var ls []layer
	for l, acc := range accs {
		if acc != nil {
			ls = append(ls, layer(l))
		}
	}
	return ls
}

// selfTimes splits one shard's layer busy times into self times, in ns:
// each layer's busy time minus the busy time of the layer below, minus the
// shims' own clock reads (about one per own call inside the layer's
// window, and a whole instrumented call per child call). The last element
// is the time above the top layer within worker time run: core, plus the
// Source bookkeeping and retry backoff that cannot be split from it.
func selfTimes(ls []layer, snap [numLayers]layerSnap, run time.Duration, cc clockCost) (self [numLayers]float64, core float64) {
	below := layerSnap{}
	for _, l := range ls {
		s := snap[l]
		self[l] = float64(s.busy-below.busy) - cc.read*float64(s.calls) - (cc.call-cc.read)*float64(below.calls)
		below = s
	}
	core = float64(run) - float64(below.busy) - (cc.call-cc.read)*float64(below.calls)
	return self, core
}

// layerMetrics computes the per-layer metrics over the measured requests of
// every round's traced replay. Idle layers report 0.
func layerMetrics(rp *report, w *workloadDef, trs []tracedRound, cc clockCost) {
	ls := trs[0].tr.layers
	var (
		n, repeats                              float64
		svc, baseline                           []time.Duration
		fill                                    series
		sorted, random, depth, bounds, buffered float64
		retries, faults, build                  float64
		coreNs                                  = map[string]float64{}
		cohortN                                 = map[string]float64{}
		selfNs                                  [numLayers]float64
		entries, calls                          [numLayers]float64
		cache                                   = map[string]access.CacheStats{}
		busy, wall, resumes, straggle, vsSeq    float64
		logical, physical, peak, batches        float64
	)
	for _, rd := range trs {
		reqs, tr := rd.reqs, rd.tr
		baseline = append(baseline, rd.baseline...)
		build += tr.build.Seconds()
		seen := map[traffic.QuerySpec]bool{}
		for i, r := range reqs {
			if i >= w.warmup && seen[r.Spec] {
				repeats++
			}
			seen[r.Spec] = true
		}
		fill.add(w, replayOutcomes(reqs, tr.served))
		for i := w.warmup; i < len(reqs); i++ {
			o, c := &tr.served[i], reqs[i].Cohort
			n++
			svc = append(svc, o.service)
			cohortN[c]++
			if o.res != nil {
				st := o.res.Stats
				sorted += float64(st.Sorted)
				random += float64(st.Random)
				depth += float64(st.Depth())
				bounds += float64(st.BoundRecomputes)
				buffered += float64(st.MaxBuffered)
				retries += float64(st.Retries)
				if sq := rd.seq[reqs[i].Spec]; sq > 0 {
					vsSeq += float64(st.Sorted) / float64(sq)
				}
			}
			if w.shards == 0 {
				continue // the shared scan's layers are accounted per batch below
			}
			faults += float64(o.faults)
			cache[c] = cacheAdd(cache[c], o.cache)
			busy += float64(o.run)
			wall += float64(o.service)
			var maxEl, sumEl float64
			for s, st := range o.shards {
				resumes += float64(st.Resumes)
				el := float64(st.Elapsed)
				maxEl = max(maxEl, el)
				sumEl += el
				self, core := selfTimes(ls, o.layers[s], st.Elapsed, cc)
				coreNs[c] += core
				for _, l := range ls {
					selfNs[l] += self[l]
					entries[l] += float64(o.layers[s][l].entries)
					calls[l] += float64(o.layers[s][l].calls)
				}
			}
			if sumEl > 0 {
				straggle += maxEl / (sumEl / float64(len(o.shards)))
			}
		}
		for _, b := range tr.batches {
			if b.lo < w.warmup {
				continue
			}
			var run time.Duration
			for j := b.lo; j < b.hi; j++ {
				run += tr.served[j].run
				if res := tr.served[j].res; res != nil {
					logical += float64(res.Stats.Sorted)
				}
			}
			self, core := selfTimes(ls, b.layers, run, cc)
			for j := b.lo; j < b.hi; j++ {
				// The batch's core time goes to its requests in proportion
				// to their own run times.
				coreNs[reqs[j].Cohort] += core * float64(tr.served[j].run) / float64(max(run, 1))
			}
			for _, l := range ls {
				selfNs[l] += self[l]
				entries[l] += float64(b.layers[l].entries)
				calls[l] += float64(b.layers[l].calls)
			}
			physical += float64(b.scan.Sorted)
			peak += float64(b.peak)
			batches++
		}
	}

	var fillP99, coreTotal float64
	if w.shards == 0 {
		fillP99 = ms(quantile(simulate(fill.at, fill.service, w.batch).fill, 0.99))
	}
	for _, v := range coreNs {
		coreTotal += v
	}
	users, crawlers := cache["users"], cache["crawlers"]
	all := cacheAdd(users, crawlers)
	perReq := func(x float64) float64 { return x / n }

	rp.add("traffic.repeat_share", repeats/n, "ratio")
	rp.add("repro.fill_wait_ms_p99", fillP99, "ms")
	rp.add("repro.stack_build_s", build/float64(len(trs)), "s")
	rp.add("scan.sharing", logical/max(physical, 1), "ratio")
	rp.add("scan.peak_window", peak/max(batches, 1), "entries")
	rp.add("shard.busy_frac", busy/max(float64(workers)*wall, 1), "ratio")
	rp.add("shard.resumes", perReq(resumes), "count")
	rp.add("shard.sorted_vs_seq", perReq(vsSeq), "ratio")
	rp.add("shard.straggler_ratio", perReq(straggle), "ratio")
	rp.add("core.self_ms", perReq(coreTotal)/1e6, "ms")
	rp.add("core.self_ms.users", coreNs["users"]/max(cohortN["users"], 1)/1e6, "ms")
	rp.add("core.self_ms.crawlers", coreNs["crawlers"]/max(cohortN["crawlers"], 1)/1e6, "ms")
	rp.add("core.sorted", perReq(sorted), "count")
	rp.add("core.random", perReq(random), "count")
	rp.add("core.depth", perReq(depth), "count")
	rp.add("core.bound_recomputes", perReq(bounds), "count")
	rp.add("core.max_buffered", perReq(buffered), "count")
	rp.add("cache.hit_rate.users", users.HitRate(), "ratio")
	rp.add("cache.hit_rate.crawlers", crawlers.HitRate(), "ratio")
	rp.add("cache.cold_hit_share", float64(all.ColdHits)/max(float64(all.Hits+all.ColdHits), 1), "ratio")
	rp.add("cache.probe_hit_rate", float64(all.ProbeHits)/max(float64(all.ProbeHits+all.ProbeMisses), 1), "ratio")
	rp.add("cache.admission_rejects", perReq(float64(all.AdmissionRejects)), "count")
	rp.add("cache.evictions", perReq(float64(all.Evictions)), "count")
	rp.add("cache.self_us", perReq(selfNs[layerCache])/1e3, "us")
	rp.add("faulty.injected", perReq(faults), "count")
	rp.add("source.retries", perReq(retries), "count")
	rp.add("faulty.self_us", perReq(selfNs[layerFaulty])/1e3, "us")
	rp.add("remote.entries_per_call", entries[layerRemote]/max(calls[layerRemote], 1), "ratio")
	rp.add("remote.self_us", perReq(selfNs[layerRemote])/1e3, "us")
	rp.add("model.entries", perReq(entries[layerModel]), "count")
	rp.add("model.ns_per_entry", selfNs[layerModel]/max(entries[layerModel], 1), "ns")
	rp.add("trace.overhead", ms(quantile(svc, 0.5))/ms(quantile(baseline, 0.5)), "ratio")
}

func cacheAdd(a, b access.CacheStats) access.CacheStats {
	return sumCache([]repro.CacheStats{a, b})
}

// replayOutcomes adapts a traced replay to ReplayTrace's outcome shape.
func replayOutcomes(reqs []traffic.Request, ss []served) []repro.ReplayOutcome {
	out := make([]repro.ReplayOutcome, len(ss))
	for i, s := range ss {
		out[i] = repro.ReplayOutcome{Request: reqs[i], Result: s.res, Err: s.err, Service: s.service}
	}
	return out
}

// span is one traced interval. Layer spans aggregate a layer's calls within
// one request (sharded) or batch (shared scan): start and end bound the
// calls, busy sums their durations, self subtracts the layer below and the
// shims' own clock reads.
type span struct {
	Round   int    `json:"round"`
	Req     int    `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Busy    int64  `json:"busy_ns"`
	Self    int64  `json:"self_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Entries int64  `json:"entries,omitempty"`
}

// spans turns a traced replay into its span tree: request → shard → layers
// top down on sharded stacks; batch → requests and batch → model on the
// shared scan, whose lists the batch's requests share.
func spans(w *workloadDef, round int, tr *tracedRun, cc clockCost, out []span) []span {
	emit := func(sp span) int {
		sp.Round, sp.ID = round, len(out)
		out = append(out, sp)
		return sp.ID
	}
	ls := tr.layers
	layerSpans := func(req, shardIdx, parent int, snap [numLayers]layerSnap, run time.Duration) {
		self, _ := selfTimes(ls, snap, run, cc)
		for i := len(ls) - 1; i >= 0; i-- {
			s := snap[ls[i]]
			if s.calls == 0 {
				continue
			}
			parent = emit(span{Req: req, Parent: parent, Name: layerNames[ls[i]], Shard: shardIdx,
				Start: s.first, End: s.last, Busy: s.busy, Self: int64(self[ls[i]]), Calls: s.calls, Entries: s.entries})
		}
	}
	if w.shards == 0 {
		for _, b := range tr.batches {
			var run time.Duration
			for j := b.lo; j < b.hi; j++ {
				run += tr.served[j].run
			}
			_, core := selfTimes(ls, b.layers, run, cc)
			id := emit(span{Req: b.lo, Parent: -1, Name: "batch", Start: b.start, End: b.end, Busy: b.end - b.start, Self: int64(core)})
			for j := b.lo; j < b.hi; j++ {
				o := tr.served[j]
				emit(span{Req: j, Parent: id, Name: "request", Start: o.start, End: o.start + int64(o.run), Busy: int64(o.run)})
			}
			layerSpans(b.lo, 0, id, b.layers, run)
		}
		return out
	}
	for i, o := range tr.served {
		id := emit(span{Req: i, Parent: -1, Name: "request", Start: o.start, End: o.start + int64(o.service), Busy: int64(o.service)})
		for s, st := range o.shards {
			_, core := selfTimes(ls, o.layers[s], st.Elapsed, cc)
			top := o.layers[s][ls[len(ls)-1]]
			sid := emit(span{Req: i, Parent: id, Name: "shard", Shard: s, Start: top.first, End: top.last,
				Busy: int64(st.Elapsed), Self: int64(core)})
			layerSpans(i, s, sid, o.layers[s], st.Elapsed)
		}
	}
	return out
}

// writeSpans writes the traced replay's spans as JSON lines.
func writeSpans(dir string, w *workloadDef, seed uint64, trs []tracedRound, cc clockCost) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var all []span
	for r, rd := range trs {
		all = spans(w, r, rd.tr, cc, all)
	}
	for _, sp := range all {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
