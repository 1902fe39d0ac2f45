package repro_test

import (
	"errors"
	"math"
	"testing"

	"repro"
	"repro/internal/workload"
)

// The tables FuzzQuery draws a query from, one per field. Each mixes values
// the option rules accept with values they reject; the first entry of each
// is the plain default, so a short input spells a plain query.
var (
	nan, inf = math.NaN(), math.Inf(1)

	fuzzAggs = []repro.AggFunc{
		repro.Avg(3), repro.Min(3), repro.Max(3), repro.Sum(3), repro.Product(3),
		repro.Median(3), repro.GeometricMean(3), repro.Avg(2),
	}
	fuzzKs    = []int{5, 1, 10, 64, 65, 0, -2}
	fuzzAlgos = []repro.AlgorithmName{
		"", repro.AlgoTA, repro.AlgoNRA, repro.AlgoCA, repro.AlgoFA, repro.AlgoNaive, repro.AlgoMaxTopK, "ZA",
	}
	fuzzThetas = []float64{0, 1, 1.5, 3, 0.5, -3, nan, inf}
	fuzzCosts  = []repro.CostModel{
		{}, {CS: 1, CR: 1}, {CS: 1, CR: 8}, {CS: 2}, {CR: 5}, {CS: -1, CR: 1}, {CS: nan, CR: 1}, {CS: 1, CR: inf},
	}
	fuzzSortedLists = [][]int{nil, {0}, {0, 2}, {1, 1}, {3}, {-1}}
	fuzzShards      = []int{0, 1, 2, 3, repro.AutoShards, -3}
	fuzzWorkers     = []int{0, 1, 2, -1}
	fuzzSchedules   = []repro.Schedule{
		repro.ScheduleAuto, repro.ScheduleWave, repro.ScheduleCostAware, repro.ScheduleAdaptive, "bogus",
	}
	fuzzRetries = []repro.Retry{
		{}, {MaxAttempts: 8, Budget: 4096}, {MaxAttempts: 1}, {MaxAttempts: -1}, {Base: -1},
	}
	fuzzMinThetas = []float64{0, 1, 2.5, 0.5, nan, inf}
	fuzzBackends  = []*repro.BackendSpec{
		nil, {SortedCost: 1, RandomCost: 4}, {StragglerShards: 1}, {BatchRTT: true},
		{SortedCost: nan, RandomCost: 1}, {Jitter: 2}, {RandomCost: 8},
	}
	// The last two cache specs are bounds a cache once sized itself from.
	fuzzCaches = []*repro.CacheSpec{
		nil, {}, {PageSize: 4, Pages: 2, Memo: 8}, {ColdPages: -1, ColdHitCost: -1}, {Pages: -5}, {ColdHitCost: nan},
		{Pages: 1 << 60},
		{PageSize: math.MaxInt, Pages: math.MaxInt, ColdPages: math.MaxInt, ColdHitCost: math.MaxInt, Memo: math.MaxInt},
	}
	fuzzFaults = []*repro.FaultSpec{
		nil, {Rate: 0.05, BurstEvery: 40, Seed: 3}, {DeadList: 1, Seed: 9}, {Rate: 1.5}, {DeadList: 7},
	}
	fuzzEngineShards = []int{1, 2, 3, 100} // 100 > N: Partition clamps it to N
)

// fuzzQuery is one decoded FuzzQuery input.
type fuzzQuery struct {
	agg  repro.AggFunc
	k    int
	opts repro.Options
	p    int // the shard count QuerySharded's engine was built with
}

// decodeFuzzQuery reads one byte per field, in the order the tables are
// declared, and picks that field's value from its table modulo the table's
// length; bytes past the end of data read as 0. A fifth byte's bits set
// NoRandomAccess (bit 1), CostAwareTA (bit 4) and an OnProgress hook that
// stops the run after 20 reports (bit 8); bit 2 is unused.
func decodeFuzzQuery(data []byte) fuzzQuery {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	q := fuzzQuery{agg: fuzzAggs[next(len(fuzzAggs))], k: fuzzKs[next(len(fuzzKs))]}
	o := &q.opts
	o.Algorithm = fuzzAlgos[next(len(fuzzAlgos))]
	o.Theta = fuzzThetas[next(len(fuzzThetas))]
	flags := next(16)
	o.NoRandomAccess = flags&1 != 0
	o.CostAwareTA = flags&4 != 0
	if flags&8 != 0 {
		reports := 0
		o.OnProgress = func(repro.ProgressView) bool { reports++; return reports < 20 }
	}
	o.Costs = fuzzCosts[next(len(fuzzCosts))]
	o.SortedLists = fuzzSortedLists[next(len(fuzzSortedLists))]
	o.Shards = fuzzShards[next(len(fuzzShards))]
	o.ShardWorkers = fuzzWorkers[next(len(fuzzWorkers))]
	o.Schedule = fuzzSchedules[next(len(fuzzSchedules))]
	o.Retry = fuzzRetries[next(len(fuzzRetries))]
	o.MinTheta = fuzzMinThetas[next(len(fuzzMinThetas))]
	o.Backend = fuzzBackends[next(len(fuzzBackends))]
	o.Cache = fuzzCaches[next(len(fuzzCaches))]
	o.Fault = fuzzFaults[next(len(fuzzFaults))]
	q.p = fuzzEngineShards[next(len(fuzzEngineShards))]
	return q
}

// FuzzQuery checks that the entry points agree on which options they
// accept. For every decoded query: no entry point panics, and every error
// wraps exactly one of ErrBadQuery and ErrBackend. For a query with no
// access stack: Query at Shards 0 and BatchQuery accept or reject it
// together, and so do Query at Shards P and QuerySharded on a
// NewSharded(db, P) engine. Answers are not checked here.
func FuzzQuery(f *testing.F) {
	db, err := workload.IndependentUniform(workload.Spec{N: 64, M: 3, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	engines := map[int]*repro.Sharded{}
	for _, p := range fuzzEngineShards {
		if engines[p], err = repro.NewSharded(db, p); err != nil {
			f.Fatal(err)
		}
	}
	// More seeds, one per verdict the entry points must share, are in
	// testdata/fuzz/FuzzQuery.
	for _, seed := range [][]byte{
		{},                             // plain TA
		{2, 0, 6},                      // MaxTopK under Max
		{1, 1, 2, 0, 1, 2, 0, 2, 0, 2}, // sharded NRA, cost-aware schedule
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := decodeFuzzQuery(data)
		check := func(where string, err error) bool {
			t.Helper()
			if err != nil && errors.Is(err, repro.ErrBadQuery) == errors.Is(err, repro.ErrBackend) {
				t.Fatalf("%s: error %v wraps neither or both of ErrBadQuery and ErrBackend (%+v)", where, err, q.opts)
			}
			return err == nil
		}
		_, err := repro.Query(db, q.agg, q.k, q.opts)
		check("Query", err)
		if q.opts.Backend != nil || q.opts.Cache != nil || q.opts.Fault != nil {
			return
		}
		seq := q.opts
		seq.Shards = 0
		_, err = repro.Query(db, q.agg, q.k, seq)
		okQuery := check("Query at Shards 0", err)
		br := repro.BatchQuery(db, []repro.QuerySpec{{Agg: q.agg, K: q.k, Opts: seq}}, 1)
		if okBatch := check("BatchQuery", br.Outcomes[0].Err); okBatch != okQuery {
			t.Fatalf("Query at Shards 0 says %v, BatchQuery says %v (%+v)", err, br.Outcomes[0].Err, seq)
		}
		sharded := q.opts
		sharded.Shards = q.p
		_, err = repro.Query(db, q.agg, q.k, sharded)
		okQuery = check("Query at Shards P", err)
		_, engErr := repro.QuerySharded(engines[q.p], q.agg, q.k, sharded)
		if okEngine := check("QuerySharded", engErr); okEngine != okQuery {
			t.Fatalf("Query at Shards %d says %v, QuerySharded says %v (%+v)", q.p, err, engErr, sharded)
		}
	})
}
