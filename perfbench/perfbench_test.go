package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/workload"
)

// small is w scaled down for tests: the same stack, traffic mix and
// executor over a smaller database and trace.
func small(t *testing.T, name string) *workloadDef {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.n, c.requests, c.warmup = 4000, 240, 24
	return &c
}

// prepareOne generates round 0 of a small workload.
func prepareOne(t *testing.T, w *workloadDef, seed uint64) *inputs {
	t.Helper()
	in, err := prepare(w, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func methods(v any) []string {
	typ := reflect.TypeOf(v)
	out := make([]string, typ.NumMethod())
	for i := range out {
		out[i] = typ.Method(i).Name
	}
	sort.Strings(out)
	return out
}

// optional reports which of the access contract's optional interfaces l
// implements, and whether it reports itself fallible.
func optional(l access.ListSource) map[string]bool {
	_, batch := l.(access.BatchList)
	_, costed := l.(access.CostedList)
	_, costedBatch := l.(access.CostedBatchList)
	_, backend := l.(access.Backend)
	_, fl := l.(access.FallibleList)
	_, fb := l.(access.FallibleBatchList)
	_, fc := l.(access.FallibleCostedList)
	_, fcb := l.(access.FallibleCostedBatchList)
	_, marker := l.(interface{ Fallible() bool })
	return map[string]bool{
		"BatchList": batch, "CostedList": costed, "CostedBatchList": costedBatch, "Backend": backend,
		"FallibleList": fl, "FallibleBatchList": fb, "FallibleCostedList": fc, "FallibleCostedBatchList": fcb,
		"Fallible()": marker, "IsFallible": access.IsFallible(l),
	}
}

// TestShimMethodSets pins that every timing shim exposes exactly the
// method set — and so exactly the optional interfaces — of the layer it
// wraps, over both fault-free and faulty layers below.
func TestShimMethodSets(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 100, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := db.List(0)
	acc := &layerAcc{}
	remote := access.NewRemote(l, access.CostModel{CS: 1, CR: 4}, access.Latency{})
	faulty := access.NewFaulty(remote, access.FaultPlan{Rate: 0.5})
	cacheOverFaulty := access.NewCache(access.CacheConfig{}).Wrap(0, faulty)
	cacheOverModel := access.NewCache(access.CacheConfig{}).Wrap(0, l)
	remoteOverFaulty := access.NewRemote(faulty, access.CostModel{CS: 1, CR: 1}, access.Latency{})
	cases := []struct {
		name        string
		inner, shim access.ListSource
	}{
		{"model", l, &modelShim{List: l, acc: acc}},
		{"remote", remote, &remoteShim{Remote: remote, acc: acc}},
		{"remote over faulty", remoteOverFaulty, &remoteShim{Remote: remoteOverFaulty, acc: acc}},
		{"faulty", faulty, &faultyShim{Faulty: faulty, acc: acc}},
		{"cache over faulty", cacheOverFaulty, &cacheShim{cachedView: cacheOverFaulty.(cachedView), acc: acc}},
		{"cache over model", cacheOverModel, &cacheShim{cachedView: cacheOverModel.(cachedView), acc: acc}},
	}
	for _, c := range cases {
		if got, want := methods(c.shim), methods(c.inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shim methods %v, wrapped layer %v", c.name, got, want)
		}
		if got, want := optional(c.shim), optional(c.inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shim interfaces %v, wrapped layer %v", c.name, got, want)
		}
	}
}

// TestShimsTimeEveryLayer: on the full stack every layer records calls and
// entries, so no access path bypasses a shim.
func TestShimsTimeEveryLayer(t *testing.T) {
	w := small(t, "stack-mixed")
	in := prepareOne(t, w, 42)
	tr, err := replayTraced(w, in, workers, in.reqs)
	if err != nil {
		t.Fatal(err)
	}
	var total [numLayers]layerSnap
	for _, o := range tr.served {
		for _, snap := range o.layers {
			for l := range snap {
				total[l].calls += snap[l].calls
				total[l].entries += snap[l].entries
			}
		}
	}
	for l, s := range total {
		if s.calls == 0 || s.entries == 0 {
			t.Errorf("layer %s recorded %d calls, %d entries", layerNames[l], s.calls, s.entries)
		}
	}
}

// TestTracedMatchesUntraced is the traced run's fidelity check on every
// workload: at one worker the traced stack's answers, Stats and cache
// counters equal repro's, request for request.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.name)
		for _, seed := range []uint64{42, 123} {
			in := prepareOne(t, w, seed)
			mism, _, err := fidelity(w, in, in.reqs[:96])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mism {
				t.Errorf("%s seed %d: %s", w.name, seed, m)
			}
		}
	}
}

// TestOracleAcceptsEveryAnswer replays every workload at seeds 42 and 123
// and checks each answer against the full-scan oracle.
func TestOracleAcceptsEveryAnswer(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.name)
		for _, seed := range []uint64{42, 123} {
			in := prepareOne(t, w, seed)
			r, err := replayOnce(w, in, workers, in.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if r.wrong != 0 {
				t.Errorf("%s seed %d: %d failures: %v", w.name, seed, r.wrong, r.errs)
			}
		}
	}
}

// TestOracleRejectsWrongAnswers: a swapped-out answer item, a wrong
// reported grade and a broken θ certificate are all caught.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	w := small(t, "scan-ta")
	in := prepareOne(t, w, 42)
	for _, req := range in.reqs {
		res, err := repro.Query(in.db, in.oracle.fns[req.Spec.Agg], req.Spec.K, repro.Options{Theta: req.Spec.Theta})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.oracle.check(req.Spec, res); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
		bad := *res
		bad.Items = append([]repro.Scored(nil), res.Items...)
		// The lowest-ranked object of the database is never in a top k.
		worst := in.db.Objects()[0]
		for _, obj := range in.db.Objects() {
			f := in.oracle.fns[req.Spec.Agg]
			if f.Apply(in.db.Grades(obj)) < f.Apply(in.db.Grades(worst)) {
				worst = obj
			}
		}
		bad.Items[0] = repro.Scored{Object: worst, Grade: res.Items[0].Grade}
		if in.oracle.check(req.Spec, &bad) == nil {
			t.Fatalf("%+v: answer with object %d swapped in accepted", req.Spec, worst)
		}
		if req.Spec.Theta <= 1 {
			bad.Items = append([]repro.Scored(nil), res.Items...)
			bad.Items[0].Grade += 1e-9
			if in.oracle.check(req.Spec, &bad) == nil {
				t.Fatalf("%+v: wrong reported grade accepted", req.Spec)
			}
		}
	}
}

// TestAdmissionRuleMatchesReplayTrace: the benchmark's virtual-time queue
// reproduces ReplayTrace's own queueing at the trace's rate — batch
// admission on the shared scan, and a single server on the sharded path
// (where ReplayTrace's Workers = 1 queue is the one-server queue).
func TestAdmissionRuleMatchesReplayTrace(t *testing.T) {
	for _, name := range []string{"scan-ta", "sharded-nra"} {
		w := small(t, name)
		w.warmup = 0
		in := prepareOne(t, w, 7)
		nw := workers
		if w.shards > 0 {
			nw = 1
		}
		rep, err := repro.ReplayTrace(in.db, in.reqs, w.replayOptions(in.seed, nw))
		if err != nil {
			t.Fatal(err)
		}
		var s series
		s.add(w, rep.Outcomes)
		q := simulate(s.at, s.service, w.batch)
		for i, o := range rep.Outcomes {
			got := q.sojourn[i] - o.Service
			// ReplayTrace's batch start uses the batch's exact service; the
			// per-request shares lose at most batch ns to integer division.
			if d := got - o.Queue; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("%s request %d: simulated queue %v, ReplayTrace %v", name, i, got, o.Queue)
			}
		}
	}
}

// TestCapacitySearch: with constant service s and evenly spaced arrivals
// the capacity is the rate at which arrivals come every s, plus the slight
// overload a finite trace absorbs before its backlog or p99 sojourn
// reaches the limit.
func TestCapacitySearch(t *testing.T) {
	const n = 1000
	at := make([]time.Duration, n)
	svc := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(i) * 100 * time.Millisecond // 10 req/s offered
		svc[i] = 10 * time.Millisecond                    // saturates at 100 req/s
	}
	c := capacity(at, svc, 0, 10, 50*time.Millisecond)
	if c < 100 || c > 100.5 {
		t.Fatalf("capacity %v, want ≈100.4 req/s", c)
	}
	// Batched admission: at low rates the fill wait breaks the limit, so
	// the feasible range is bounded below; the search must still find its
	// top.
	c = capacity(at, svc, 8, 10, 200*time.Millisecond)
	if c < 100 || c > 101.5 {
		t.Fatalf("batched capacity %v, want ≈101.2 req/s", c)
	}
}

// TestTraceDeterministic: the same seed gives the same trace, cohort counts
// are fixed by the workload, and arrivals are ordered.
func TestTraceDeterministic(t *testing.T) {
	w := small(t, "stack-mixed")
	a, err := w.trace(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.trace(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different traces")
	}
	crawlers := 0
	for i, r := range a {
		if r.Seq != i || (i > 0 && r.At < a[i-1].At) {
			t.Fatalf("request %d out of order: %+v", i, r)
		}
		if r.Cohort == "crawlers" {
			crawlers++
		}
	}
	if want := w.requests - int(float64(w.requests)*w.usersRate/w.offered()+0.5); crawlers != want {
		t.Fatalf("%d crawlers, want %d", crawlers, want)
	}
}
