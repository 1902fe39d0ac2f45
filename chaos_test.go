package repro_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro"
	"repro/internal/workload"
)

// chaosWorkloads is the battery the chaos properties run over: every grade
// distribution the workload package generates, small enough to keep the
// full matrix fast under -race.
func chaosWorkloads(t *testing.T) map[string]*repro.Database {
	t.Helper()
	out := map[string]*repro.Database{}
	add := func(name string, db *repro.Database, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		out[name] = db
	}
	spec := func(seed int64) workload.Spec { return workload.Spec{N: 240, M: 3, Seed: seed} }
	db, err := workload.IndependentUniform(spec(41))
	add("uniform", db, err)
	db, err = workload.Correlated(spec(42), 0.05)
	add("correlated", db, err)
	db, err = workload.AntiCorrelated(spec(43), 0.05)
	add("anticorrelated", db, err)
	db, err = workload.Zipf(spec(44), 2.0)
	add("zipf", db, err)
	db, err = workload.Plateau(spec(45), 6)
	add("plateau", db, err)
	db, err = workload.DistinctUniform(spec(46))
	add("distinct", db, err)
	return out
}

// gradeMultiset reduces an answer to its sorted grade multiset: the
// tie-safe equality notion. Two runs that break a grade tie toward
// different objects are both canonical answers, so object identity is not
// comparable — the grades are.
func gradeMultiset(db *repro.Database, tf repro.AggFunc, res *repro.Result) []float64 {
	out := make([]float64, 0, len(res.Items))
	for _, it := range res.Items {
		out = append(out, float64(tf.Apply(db.Grades(it.Object))))
	}
	sort.Float64s(out)
	return out
}

func sameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// chaosModes is every execution mode the fault injector supports, spanning
// the sequential algorithms and the sharded engine at P ∈ {1, 4}.
var chaosModes = []struct {
	name string
	opts repro.Options
}{
	{"ta", repro.Options{}},
	{"nra", repro.Options{NoRandomAccess: true}},
	{"ca", repro.Options{Algorithm: repro.AlgoCA}},
	{"sharded-ta-p1", repro.Options{Shards: 1}},
	{"sharded-ta-p4", repro.Options{Shards: 4}},
	{"sharded-nra-p4", repro.Options{Shards: 4, NoRandomAccess: true}},
	{"sharded-nra-cost-aware-p4", repro.Options{
		Shards: 4, NoRandomAccess: true, Schedule: repro.ScheduleCostAware,
	}},
}

// TestChaosTransientFaultsExactAnswers: transient faults are invisible in
// the answer. With retries enabled, a run under a fault rate plus burst
// outages must produce the same grade multiset as the fault-free run, in
// every mode, on every workload — and must actually have hit faults.
func TestChaosTransientFaultsExactAnswers(t *testing.T) {
	const k = 10
	tf := repro.Avg(3)
	fault := &repro.FaultSpec{Rate: 0.05, BurstEvery: 300, BurstLen: 6, Seed: 7}
	// A burst stalls retries for its whole length, so the policy must
	// outlast BurstLen consecutive failures to ride out an outage window.
	retry := repro.Retry{MaxAttempts: fault.BurstLen + 2, Budget: 4096}
	for name, db := range chaosWorkloads(t) {
		for _, mode := range chaosModes {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				clean, err := repro.Query(db, tf, k, mode.opts)
				if err != nil {
					t.Fatalf("fault-free: %v", err)
				}
				opts := mode.opts
				opts.Fault = fault
				opts.Retry = retry
				res, err := repro.Query(db, tf, k, opts)
				if err != nil {
					t.Fatalf("faulty: %v", err)
				}
				if res.Stats.Faults == 0 {
					t.Fatal("fault injector never fired — the run proves nothing")
				}
				if res.Stats.Retries < res.Stats.Faults {
					t.Fatalf("%d faults but only %d retries", res.Stats.Faults, res.Stats.Retries)
				}
				if !res.GradesExact && !mode.opts.NoRandomAccess {
					t.Fatal("transient faults degraded a random-access answer")
				}
				if res.Theta != clean.Theta {
					t.Fatalf("θ drifted under transient faults: %g vs %g", res.Theta, clean.Theta)
				}
				got, want := gradeMultiset(db, tf, res), gradeMultiset(db, tf, clean)
				if !sameMultiset(got, want) {
					t.Fatalf("answer changed under transient faults:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestChaosShardLossSoundTheta: losing a shard permanently must still
// produce an answer, and its certified θ must satisfy the paper's
// Section 6.2 condition against the full database: θ·t(y) ≥ t(z) for every
// answer y and non-answer z.
func TestChaosShardLossSoundTheta(t *testing.T) {
	const k, p = 8, 4
	tf := repro.Avg(3)
	for name, db := range chaosWorkloads(t) {
		for _, noRandom := range []bool{false, true} {
			mode := "ta"
			if noRandom {
				mode = "nra"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				res, err := repro.Query(db, tf, k, repro.Options{
					Shards:         p,
					NoRandomAccess: noRandom,
					Fault:          &repro.FaultSpec{DeadList: 1, Seed: 9},
					Retry:          repro.Retry{MaxAttempts: 2},
				})
				if err != nil {
					t.Fatalf("degraded query failed: %v", err)
				}
				if res.GradesExact || res.Theta < 1 || res.Stats.DeadShards != 1 {
					t.Fatalf("degradation contract broken: exact=%v θ=%g dead=%d",
						res.GradesExact, res.Theta, res.Stats.DeadShards)
				}
				// θ soundness against ground truth.
				answers := make(map[repro.ObjectID]bool, k)
				worst := math.Inf(1)
				for _, it := range res.Items {
					answers[it.Object] = true
					if g := float64(tf.Apply(db.Grades(it.Object))); g < worst {
						worst = g
					}
				}
				for _, obj := range db.Objects() {
					if answers[obj] {
						continue
					}
					if z := float64(tf.Apply(db.Grades(obj))); res.Theta*worst < z-1e-12 {
						t.Fatalf("θ=%g unsound: worst answer %g vs non-answer %g", res.Theta, worst, z)
					}
				}
				// MinTheta: a generous floor accepts the same degraded run;
				// a floor below the certified θ rejects with ErrBackend.
				opts := repro.Options{
					Shards:         p,
					NoRandomAccess: noRandom,
					Fault:          &repro.FaultSpec{DeadList: 1, Seed: 9},
					Retry:          repro.Retry{MaxAttempts: 2},
					MinTheta:       res.Theta + 1,
				}
				if _, err := repro.Query(db, tf, k, opts); err != nil {
					t.Fatalf("MinTheta %g rejected certified θ=%g: %v", opts.MinTheta, res.Theta, err)
				}
				if res.Theta > 1 {
					opts.MinTheta = 1
					_, err := repro.Query(db, tf, k, opts)
					if !errors.Is(err, repro.ErrBackend) {
						t.Fatalf("MinTheta 1 vs θ=%g: want ErrBackend, got %v", res.Theta, err)
					}
					if errors.Is(err, repro.ErrBadQuery) {
						t.Fatal("a too-weak answer is a backend failure, not a bad query")
					}
				}
			})
		}
	}
}

// TestChaosFaultSpecValidation pins the option-combination rules of the
// fault layer at the public surface.
func TestChaosFaultSpecValidation(t *testing.T) {
	db := sampleDB(t)
	tf := repro.Avg(3)
	bad := []repro.Options{
		{Fault: &repro.FaultSpec{Rate: 1.5}},
		{Fault: &repro.FaultSpec{Rate: -0.1}},
		{Fault: &repro.FaultSpec{BurstEvery: -1}},
		{Fault: &repro.FaultSpec{DeadList: 99}},                 // only 3 lists
		{Fault: &repro.FaultSpec{}, Algorithm: repro.AlgoFA},    // infallible scan
		{Fault: &repro.FaultSpec{}, Algorithm: repro.AlgoNaive}, // infallible scan
		{MinTheta: 1.5}, // sequential path cannot degrade
		{Shards: 2, MinTheta: 0.5},
	}
	for i, opts := range bad {
		if _, err := repro.Query(db, tf, 2, opts); !errors.Is(err, repro.ErrBadQuery) {
			t.Fatalf("case %d (%+v): want ErrBadQuery, got %v", i, opts, err)
		}
	}
}

// TestChaosNonFiniteOptionsRejected: NaN and ±Inf in any float option fail
// with ErrBadQuery on every path that accepts the option — sequential,
// sharded, batch, QuerySharded and a NewFaultyStack engine — instead of
// silently reading everything, certifying θ = 1 or charging a NaN cost. So
// does a θ outside {0} ∪ [1, ∞), whatever the algorithm.
func TestChaosNonFiniteOptionsRejected(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 2000, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tf := repro.Avg(3)
	nan, inf := math.NaN(), math.Inf(1)
	sharded, err := repro.NewSharded(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Per-query options: checked on the sequential, sharded and batch paths
	// and by QuerySharded.
	query := map[string]repro.Options{
		"Theta NaN":              {Theta: nan},
		"Theta +Inf":             {Theta: inf},
		"Theta -Inf":             {Theta: -inf},
		"MinTheta NaN":           {MinTheta: nan},
		"MinTheta +Inf":          {MinTheta: inf},
		"Costs NaN":              {Costs: repro.CostModel{CS: nan, CR: nan}},
		"Costs cS +Inf":          {Costs: repro.CostModel{CS: inf, CR: 1}},
		"Costs cR +Inf":          {Costs: repro.CostModel{CS: 1, CR: inf}},
		"CA Costs NaN":           {Algorithm: repro.AlgoCA, Costs: repro.CostModel{CS: nan, CR: nan}},
		"NRA Theta +Inf":         {NoRandomAccess: true, Theta: inf},
		"NRA Theta 0.5":          {Algorithm: repro.AlgoNRA, Theta: 0.5},
		"CA Theta -3":            {Algorithm: repro.AlgoCA, Theta: -3},
		"FA Theta 0.5":           {Algorithm: repro.AlgoFA, Theta: 0.5},
		"Naive Theta -3":         {Algorithm: repro.AlgoNaive, Theta: -3},
		"cost-aware TA Theta -3": {CostAwareTA: true, Theta: -3},
	}
	for name, opts := range query {
		for _, shards := range []int{0, 2} {
			o := opts
			o.Shards = shards
			if _, err := repro.Query(db, tf, 5, o); !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("%s shards=%d: want ErrBadQuery, got %v", name, shards, err)
			}
		}
		br := repro.BatchQuery(db, []repro.QuerySpec{{Agg: tf, K: 5, Opts: opts}}, 1)
		if err := br.Outcomes[0].Err; !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s batch: want ErrBadQuery, got %v", name, err)
		}
		if _, err := repro.QuerySharded(sharded, tf, 5, opts); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s QuerySharded: want ErrBadQuery, got %v", name, err)
		}
	}
	// Access-stack specs: checked on the sequential and sharded paths and
	// by NewFaultyStack.
	stacks := map[string]repro.Options{
		"SortedCost NaN":       {Backend: &repro.BackendSpec{SortedCost: nan, RandomCost: 1}},
		"RandomCost +Inf":      {Backend: &repro.BackendSpec{SortedCost: 1, RandomCost: inf}},
		"Jitter NaN":           {Backend: &repro.BackendSpec{Jitter: nan}},
		"StragglerFactor NaN":  {Backend: &repro.BackendSpec{StragglerShards: 1, StragglerFactor: nan}},
		"StragglerFactor +Inf": {Backend: &repro.BackendSpec{StragglerShards: 1, StragglerFactor: inf}},
		"BatchMarginal NaN":    {Backend: &repro.BackendSpec{BatchRTT: true, BatchMarginal: nan}},
		"Fault Rate NaN":       {Fault: &repro.FaultSpec{Rate: nan}},
		"ColdHitCost NaN":      {Cache: &repro.CacheSpec{ColdHitCost: nan}},
		"ColdHitCost -Inf":     {Cache: &repro.CacheSpec{ColdHitCost: -inf}},
	}
	for name, opts := range stacks {
		for _, shards := range []int{0, 2} {
			o := opts
			o.Shards = shards
			if _, err := repro.Query(db, tf, 5, o); !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("%s shards=%d: want ErrBadQuery, got %v", name, shards, err)
			}
		}
		if _, err := repro.NewFaultyStack(db, 2, opts.Backend, opts.Fault, opts.Cache); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s NewFaultyStack: want ErrBadQuery, got %v", name, err)
		}
	}
	// Engine-level options on a NewFaultyStack engine.
	eng, err := repro.NewFaultyStack(db, 2, nil, &repro.FaultSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, so := range map[string]repro.ShardOptions{
		"MinTheta NaN":  {MinTheta: nan},
		"MinTheta +Inf": {MinTheta: inf, NoRandomAccess: true},
		"Costs NaN":     {Costs: repro.CostModel{CS: nan, CR: nan}},
		"Costs +Inf":    {Costs: repro.CostModel{CS: 1, CR: inf}, CostAwareTA: true},
	} {
		if _, err := eng.Query(tf, 5, so); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s engine: want ErrBadQuery, got %v", name, err)
		}
	}
}

// TestChaosNegativeOptionsRejected: a negative count, size or retry bound
// fails with ErrBadQuery on every path that accepts it — sequential,
// sharded, batch, QuerySharded, NewFaultyStack, a sharded engine's Query
// and ReplayTrace — instead of silently running with the default.
func TestChaosNegativeOptionsRejected(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 2000, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tf := repro.Avg(3)
	sharded, err := repro.NewSharded(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Per-query options: checked on the sequential, sharded and batch paths
	// and by QuerySharded.
	query := map[string]repro.Options{
		"Retry MaxAttempts -1": {Retry: repro.Retry{MaxAttempts: -1}},
		"Retry Budget -1":      {Retry: repro.Retry{MaxAttempts: 2, Budget: -1}},
		"Retry Base -1ns":      {Retry: repro.Retry{Base: -1}},
		"ShardWorkers -3":      {ShardWorkers: -3},
	}
	for name, opts := range query {
		for _, shards := range []int{0, 2} {
			o := opts
			o.Shards = shards
			if _, err := repro.Query(db, tf, 5, o); !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("%s shards=%d: want ErrBadQuery, got %v", name, shards, err)
			}
		}
		br := repro.BatchQuery(db, []repro.QuerySpec{{Agg: tf, K: 5, Opts: opts}}, 1)
		if err := br.Outcomes[0].Err; !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s batch: want ErrBadQuery, got %v", name, err)
		}
		if _, err := repro.QuerySharded(sharded, tf, 5, opts); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s QuerySharded: want ErrBadQuery, got %v", name, err)
		}
	}
	// The engine fixes its shard count and stack: QuerySharded rejects
	// another count, AutoShards and any stack spec, and accepts 0 and its
	// own count.
	for name, opts := range map[string]repro.Options{
		"Shards 3":          {Shards: 3},
		"Shards AutoShards": {Shards: repro.AutoShards},
		"Cache":             {Cache: &repro.CacheSpec{}},
		"Backend":           {Backend: &repro.BackendSpec{}},
		"Fault":             {Fault: &repro.FaultSpec{}},
	} {
		if _, err := repro.QuerySharded(sharded, tf, 5, opts); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s QuerySharded: want ErrBadQuery, got %v", name, err)
		}
	}
	for _, shards := range []int{0, 2} {
		if _, err := repro.QuerySharded(sharded, tf, 5, repro.Options{Shards: shards}); err != nil {
			t.Errorf("QuerySharded Shards %d: %v", shards, err)
		}
	}
	// Cache specs: checked on the sequential and sharded paths and by
	// NewFaultyStack. Negative ColdPages (flat LRU) and ColdHitCost (free
	// cold hits) keep their documented meanings.
	for name, cache := range map[string]*repro.CacheSpec{
		"Pages -5":    {Pages: -5},
		"PageSize -1": {PageSize: -1},
		"Memo -3":     {Memo: -3},
	} {
		for _, shards := range []int{0, 2} {
			if _, err := repro.Query(db, tf, 5, repro.Options{Shards: shards, Cache: cache}); !errors.Is(err, repro.ErrBadQuery) {
				t.Errorf("%s shards=%d: want ErrBadQuery, got %v", name, shards, err)
			}
		}
		if _, err := repro.NewFaultyStack(db, 2, nil, nil, cache); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s NewFaultyStack: want ErrBadQuery, got %v", name, err)
		}
	}
	if _, err := repro.Query(db, tf, 5, repro.Options{Cache: &repro.CacheSpec{ColdPages: -1, ColdHitCost: -1}}); err != nil {
		t.Errorf("negative ColdPages and ColdHitCost: %v", err)
	}
	// Engine-level options on a NewFaultyStack engine.
	eng, err := repro.NewFaultyStack(db, 2, nil, &repro.FaultSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, so := range map[string]repro.ShardOptions{
		"Workers -3":           {Workers: -3},
		"Retry MaxAttempts -1": {Retry: repro.Retry{MaxAttempts: -1}},
		"NRA Retry Budget -1":  {Retry: repro.Retry{MaxAttempts: 2, Budget: -1}, NoRandomAccess: true},
	} {
		if _, err := eng.Query(tf, 5, so); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s engine: want ErrBadQuery, got %v", name, err)
		}
	}
	// Replay options, on both executors.
	reqs := algoTrace(t, "TA", 4)
	for name, ro := range map[string]repro.ReplayOptions{
		"Workers -1":                   {Workers: -1},
		"Retry MaxAttempts -1":         {Retry: repro.Retry{MaxAttempts: -1}},
		"sharded Workers -1":           {Shards: 2, Workers: -1},
		"sharded Retry MaxAttempts -1": {Shards: 2, Retry: repro.Retry{MaxAttempts: -1}},
		"sharded Cache Pages -5":       {Shards: 2, Cache: &repro.CacheSpec{Pages: -5}},
	} {
		if _, err := repro.ReplayTrace(db, reqs, ro); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("replay %s: want ErrBadQuery, got %v", name, err)
		}
	}
}

// TestChaosTAWithoutRandomAccess: explicit TA with NoRandomAccess follows
// one rule on every path — rejected exactly when m > 1. On one list TA
// needs no random access: Shards 0 runs core.TA sorted-only, Shards 1 and
// 2 run the engine's no-random-access mode, and all three return the same
// true-grade multiset with no random access.
func TestChaosTAWithoutRandomAccess(t *testing.T) {
	opts := func(shards int) repro.Options {
		return repro.Options{Algorithm: repro.AlgoTA, NoRandomAccess: true, Shards: shards}
	}
	one, err := workload.IndependentUniform(workload.Spec{N: 40, M: 1, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	tf1 := repro.Avg(1)
	const k = 5
	var want []float64
	for _, shards := range []int{0, 1, 2} {
		res, err := repro.Query(one, tf1, k, opts(shards))
		if err != nil {
			t.Fatalf("m=1 shards=%d: %v", shards, err)
		}
		if res.Stats.Random != 0 || !res.GradesExact {
			t.Fatalf("m=1 shards=%d: %d random accesses, GradesExact %v", shards, res.Stats.Random, res.GradesExact)
		}
		got := gradeMultiset(one, tf1, res)
		if shards == 0 {
			want = got
		} else if !sameMultiset(got, want) {
			t.Fatalf("m=1 shards=%d: grades %v, Shards 0 returned %v", shards, got, want)
		}
	}
	three, err := workload.IndependentUniform(workload.Spec{N: 40, M: 3, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		if _, err := repro.Query(three, repro.Avg(3), k, opts(shards)); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("m=3 shards=%d: want ErrBadQuery, got %v", shards, err)
		}
	}
}

// TestChaosBatchRejectsFault: the batch executor shares one scan across
// queries, which a per-query fault plan cannot compose with — the spec is
// rejected up front as a bad query, and ParallelQueries (per-query
// cursors) accepts the same spec.
func TestChaosBatchRejectsFault(t *testing.T) {
	db := sampleDB(t)
	spec := repro.QuerySpec{Agg: repro.Avg(3), K: 1,
		Opts: repro.Options{Fault: &repro.FaultSpec{Rate: 0.1, Seed: 3}}}
	br := repro.BatchQuery(db, []repro.QuerySpec{spec}, 0)
	if err := br.Outcomes[0].Err; !errors.Is(err, repro.ErrBadQuery) {
		t.Fatalf("batch: want ErrBadQuery, got %v", err)
	}
	outs := repro.ParallelQueries(db, []repro.QuerySpec{spec}, 0)
	if outs[0].Err != nil {
		t.Fatalf("parallel: %v", outs[0].Err)
	}
	if outs[0].Result.Items[0].Object != 1 {
		t.Fatalf("parallel faulty answer: %v", outs[0].Result.Items)
	}
}
