package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/agg"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// trafficDB is the database the replay equivalence tests run against.
func trafficDB(t *testing.T) *repro.Database {
	t.Helper()
	db, err := workload.Zipf(workload.Spec{N: 400, M: 3, Seed: 91}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// algoTrace generates a small single-cohort trace whose every request uses
// the given algorithm.
func algoTrace(t *testing.T, algo string, n int) []traffic.Request {
	t.Helper()
	cfg := traffic.Config{
		Seed:        101,
		MaxRequests: n,
		Cohorts: []traffic.Cohort{
			{Name: "users",
				Arrival:    traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, Rate: 400},
				Population: traffic.Population{Kind: traffic.PopZipfRepeat, PoolSize: 8, Algos: []string{algo}}},
		},
	}
	reqs, err := traffic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// replayGradeMultisets projects a replay report onto the comparable facts:
// per-request true-grade multisets, exactness, certified θ, and Stats.
type replayFacts struct {
	grades [][]float64
	exact  []bool
	theta  []float64
	stats  []repro.Stats
}

func factsOf(t *testing.T, db *repro.Database, reqs []traffic.Request, rep *repro.ReplayReport) replayFacts {
	t.Helper()
	var f replayFacts
	for i, o := range rep.Outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", i, o.Err)
		}
		tf, err := agg.ByName(reqs[i].Spec.Agg, db.M())
		if err != nil {
			t.Fatal(err)
		}
		f.grades = append(f.grades, gradeMultiset(db, tf, o.Result))
		f.exact = append(f.exact, o.Result.GradesExact)
		f.theta = append(f.theta, o.Result.Theta)
		f.stats = append(f.stats, o.Result.Stats)
	}
	return f
}

// TestReplayEquivalence: record→replay is execution-transparent. For TA,
// cost-aware TA and NRA, at P ∈ {1, 4} and on the sequential shared-scan
// path, replaying the round-tripped trace produces identical grade
// multisets, θ certificates and per-request Stats to replaying the
// generated stream directly (the Type-1 determinism experiment).
func TestReplayEquivalence(t *testing.T) {
	db := trafficDB(t)
	for _, algo := range []string{traffic.AlgoTA, traffic.AlgoCostAwareTA, traffic.AlgoNRA} {
		reqs := algoTrace(t, algo, 24)
		raw := traffic.RecordBytes(reqs)
		back, err := traffic.Replay(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", algo, p), func(t *testing.T) {
				opts := repro.ReplayOptions{Shards: p, Workers: 1}
				a, err := repro.ReplayTrace(db, reqs, opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := repro.ReplayTrace(db, back, opts)
				if err != nil {
					t.Fatal(err)
				}
				fa, fb := factsOf(t, db, reqs, a), factsOf(t, db, back, b)
				for i := range fa.grades {
					if !sameMultiset(fa.grades[i], fb.grades[i]) {
						t.Fatalf("request %d: grade multisets differ across the round trip", i)
					}
					if fa.exact[i] != fb.exact[i] || fa.theta[i] != fb.theta[i] {
						t.Fatalf("request %d: certificate differs: exact %v/%v θ %g/%g",
							i, fa.exact[i], fb.exact[i], fa.theta[i], fb.theta[i])
					}
					if !reflect.DeepEqual(fa.stats[i], fb.stats[i]) {
						t.Fatalf("request %d: Stats differ across the round trip:\n%+v\n%+v",
							i, fa.stats[i], fb.stats[i])
					}
				}
			})
		}
	}
}

// TestReplayMatchesDirectQueries: the replay executor is just plumbing —
// each request's grade multiset matches an independent direct Query of the
// same spec.
func TestReplayMatchesDirectQueries(t *testing.T) {
	db := trafficDB(t)
	reqs := algoTrace(t, traffic.AlgoTA, 16)
	rep, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outcomes {
		if o.Err != nil {
			t.Fatalf("request %d failed: %v", i, o.Err)
		}
		spec, err := repro.SpecFromTraffic(db, reqs[i].Spec, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := repro.Query(db, spec.Agg, spec.K, spec.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(gradeMultiset(db, spec.Agg, o.Result), gradeMultiset(db, spec.Agg, direct)) {
			t.Fatalf("request %d: replayed answer differs from a direct query", i)
		}
	}
}

// TestChaosTrafficReplay: transient faults are invisible to a replayed
// burst trace. The same recorded trace replayed through a Faulty sharded
// stack serves identical grade multisets and θ certificates to the
// fault-free replay — and the faulty run must actually have hit faults.
func TestChaosTrafficReplay(t *testing.T) {
	db := trafficDB(t)
	cfg := traffic.Config{
		Seed:        77,
		MaxRequests: 32,
		Cohorts: []traffic.Cohort{
			{Name: "flash-crowd",
				Arrival:    traffic.ArrivalSpec{Kind: traffic.ArrivalBurst, Rate: 2000, OnSpan: 20 * time.Millisecond, OffSpan: 60 * time.Millisecond},
				Population: traffic.Population{Kind: traffic.PopZipfRepeat, PoolSize: 6}},
		},
	}
	generated, err := traffic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the trace format first: the chaos property is
	// about a *recorded* trace.
	reqs, err := traffic.Replay(bytes.NewReader(traffic.RecordBytes(generated)))
	if err != nil {
		t.Fatal(err)
	}
	base := repro.ReplayOptions{Shards: 4, Workers: 1}
	clean, err := repro.ReplayTrace(db, reqs, base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Fault = &repro.FaultSpec{Rate: 0.05, BurstEvery: 300, BurstLen: 6, Seed: 7}
	faulty.Retry = repro.Retry{MaxAttempts: 8, Budget: 4096}
	chaos, err := repro.ReplayTrace(db, reqs, faulty)
	if err != nil {
		t.Fatal(err)
	}
	fc, ff := factsOf(t, db, reqs, clean), factsOf(t, db, reqs, chaos)
	var totalFaults int64
	for i := range fc.grades {
		if !sameMultiset(fc.grades[i], ff.grades[i]) {
			t.Fatalf("request %d: transient faults changed the served grade multiset", i)
		}
		if fc.theta[i] != ff.theta[i] || fc.exact[i] != ff.exact[i] {
			t.Fatalf("request %d: transient faults changed the certificate: θ %g→%g exact %v→%v",
				i, fc.theta[i], ff.theta[i], fc.exact[i], ff.exact[i])
		}
		totalFaults += ff.stats[i].Faults
	}
	if totalFaults == 0 {
		t.Fatal("the faulty replay never hit a fault; the property was tested vacuously")
	}
}

// TestReplayOpenLoopAccounting: the open-loop report is internally
// consistent — outcomes in trace order, non-negative queueing, positive
// service, charged cost aggregated over successes.
func TestReplayOpenLoopAccounting(t *testing.T) {
	db := trafficDB(t)
	reqs := algoTrace(t, traffic.AlgoTA, 40)
	for _, p := range []int{0, 2} {
		rep, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Shards: p, Workers: 1, Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outcomes) != len(reqs) {
			t.Fatalf("P=%d: %d outcomes for %d requests", p, len(rep.Outcomes), len(reqs))
		}
		if rep.Errors != 0 {
			t.Fatalf("P=%d: %d unexpected errors", p, rep.Errors)
		}
		for i, o := range rep.Outcomes {
			if o.Request.Seq != i {
				t.Fatalf("P=%d: outcome %d carries request %d", p, i, o.Request.Seq)
			}
			if o.Queue < 0 {
				t.Fatalf("P=%d: request %d has negative queueing delay %v", p, i, o.Queue)
			}
			if o.Service <= 0 {
				t.Fatalf("P=%d: request %d has non-positive service time %v", p, i, o.Service)
			}
		}
		if rep.Charged <= 0 {
			t.Fatalf("P=%d: charged cost %g, want positive", p, rep.Charged)
		}
		if rep.Service.Max < rep.Service.P50 || rep.Queue.Max < rep.Queue.P50 {
			t.Fatalf("P=%d: quantiles are not ordered: %+v %+v", p, rep.Service, rep.Queue)
		}
	}
}

// TestReplayValidation: malformed replay configurations and specs reject
// with ErrBadQuery before any execution.
func TestReplayValidation(t *testing.T) {
	db := trafficDB(t)
	reqs := algoTrace(t, traffic.AlgoTA, 4)
	cases := map[string]func() error{
		"nil database": func() error {
			_, err := repro.ReplayTrace(nil, reqs, repro.ReplayOptions{})
			return err
		},
		"negative shards": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Shards: -1})
			return err
		},
		"negative batch": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Batch: -2})
			return err
		},
		"backend without shards": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Backend: &repro.BackendSpec{SortedCost: 1, RandomCost: 4}})
			return err
		},
		"bad spec in stream": func() error {
			bad := append([]traffic.Request{}, reqs...)
			bad[1].Spec.K = -3
			_, err := repro.ReplayTrace(db, bad, repro.ReplayOptions{})
			return err
		},
		"spec from nil db": func() error {
			_, err := repro.SpecFromTraffic(nil, reqs[0].Spec, repro.Options{})
			return err
		},
		// Per-run options are resolved once, before any request runs, on
		// both executors.
		"sequential MinTheta": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{MinTheta: 1.5})
			return err
		},
		"sequential MinTheta NaN": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{MinTheta: math.NaN()})
			return err
		},
		"sequential Costs NaN": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Costs: repro.CostModel{CS: math.NaN(), CR: 1}})
			return err
		},
		"sharded MinTheta NaN": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Shards: 2, MinTheta: math.NaN()})
			return err
		},
		"sharded Costs NaN": func() error {
			_, err := repro.ReplayTrace(db, reqs, repro.ReplayOptions{Shards: 2, Costs: repro.CostModel{CS: math.NaN(), CR: 1}})
			return err
		},
	}
	for name, run := range cases {
		if err := run(); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s: got %v, want ErrBadQuery", name, err)
		}
	}
}
