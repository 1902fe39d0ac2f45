// Package repro is a Go implementation of the optimal aggregation
// algorithms for middleware of Fagin, Lotem and Naor (PODS 2001): the
// threshold algorithm TA and its variants (TAθ, TAz), the no-random-access
// algorithm NRA, the combined algorithm CA, and the baselines FA (Fagin's
// algorithm), Naive and the max-specialized MaxTopK — together with the
// middleware access model (sorted/random access with costs cS and cR) and
// full access accounting.
//
// A database is m sorted lists over N objects, each object carrying one
// grade per list in [0,1]; a query asks for the k objects with the highest
// overall grade under a monotone aggregation function such as Min or Avg.
//
// Quick start:
//
//	b := repro.NewBuilder(2)
//	b.MustAdd(1, 0.9, 0.3)
//	b.MustAdd(2, 0.5, 0.8)
//	db := b.MustBuild()
//	res, err := repro.TopK(db, repro.Min(2), 1)
//
// The zero-configuration TopK uses TA; Query gives full control over
// algorithm choice, access policy, cost model and approximation.
package repro

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
)

// Re-exported data-model types.
type (
	// ObjectID identifies an object.
	ObjectID = model.ObjectID
	// Grade is an attribute or overall grade.
	Grade = model.Grade
	// Database is m sorted lists over a common object set.
	Database = model.Database
	// Builder assembles a Database object-by-object.
	Builder = model.Builder
	// AggFunc is a monotone aggregation function.
	AggFunc = agg.Func
	// Result is a completed top-k run with access accounting.
	Result = core.Result
	// Scored is one answer item.
	Scored = core.Scored
	// CostModel carries the sorted/random access costs cS and cR.
	CostModel = access.CostModel
	// Stats is the per-run access accounting.
	Stats = access.Stats
	// ProgressView is the early-stopping callback view. Its TopKChanges
	// counts the changes to TopK: equal counts in two reports of one run
	// mean equal TopK lists, so a consumer may skip the later one.
	ProgressView = core.Progress
	// Retry is the per-query retry policy for transient backend failures.
	Retry = access.Retry
	// ShardStat is one shard's per-query observability record.
	ShardStat = shard.ShardStat
)

// NewBuilder starts a Database builder for m attributes.
func NewBuilder(m int) *Builder { return model.NewBuilder(m) }

// ErrBadQuery is the identity every invalid query or unsupported option
// combination wraps, on the sequential and sharded paths alike: check with
// errors.Is(err, repro.ErrBadQuery).
var ErrBadQuery = core.ErrBadQuery

// ErrBackend is the identity every backend access failure wraps — transient
// or permanent, injected or real: check with errors.Is(err, repro.ErrBackend).
// It is disjoint from ErrBadQuery: a failed backend never looks like a
// malformed query.
var ErrBackend = access.ErrBackend

// ErrListDown wraps ErrBackend and marks a list as permanently lost; the
// retry layer gives up on it immediately instead of backing off.
var ErrListDown = access.ErrListDown

// DefaultRetry is the retry policy a zero Options.Retry resolves to.
var DefaultRetry = access.DefaultRetry

// Re-exported aggregation constructors.
var (
	// Min is fuzzy conjunction (strict, strictly monotone).
	Min = agg.Min
	// Max is fuzzy disjunction.
	Max = agg.Max
	// Sum is the information-retrieval scoring function.
	Sum = agg.Sum
	// Avg is the average (strict, strictly monotone in each argument).
	Avg = agg.Avg
	// Product is the Aksoy–Franklin broadcast scoring function.
	Product = agg.Product
	// Median is the (lower) median.
	Median = agg.Median
	// WeightedSum is Σ wᵢ·xᵢ for fixed non-negative weights.
	WeightedSum = agg.WeightedSum
	// GeometricMean is (Πxᵢ)^(1/m).
	GeometricMean = agg.GeometricMean
)

// AlgorithmName selects the top-k algorithm in Options.
type AlgorithmName string

// Available algorithms.
const (
	// AlgoTA is the threshold algorithm (default; instance optimal for
	// every monotone aggregation among no-wild-guess algorithms).
	AlgoTA AlgorithmName = "TA"
	// AlgoFA is Fagin's algorithm (the paper's baseline).
	AlgoFA AlgorithmName = "FA"
	// AlgoNRA makes no random accesses and returns the top-k objects
	// with grade intervals instead of exact grades.
	AlgoNRA AlgorithmName = "NRA"
	// AlgoCA is the combined algorithm (random-access phase every
	// ⌊cR/cS⌋ depths; optimality ratio independent of cR/cS under the
	// Theorem 8.9/8.10 conditions).
	AlgoCA AlgorithmName = "CA"
	// AlgoNaive scans everything; the ground-truth baseline.
	AlgoNaive AlgorithmName = "Naive"
	// AlgoMaxTopK is the mk-sorted-access specialization for Max.
	AlgoMaxTopK AlgorithmName = "MaxTopK"
)

// Options configures Query.
type Options struct {
	// Algorithm selects the algorithm; empty means AlgoTA (or AlgoNRA
	// automatically when the policy forbids random access).
	Algorithm AlgorithmName
	// Costs is the middleware cost model; zero means cS = cR = 1.
	Costs CostModel
	// Theta > 1 asks TA for a θ-approximation (Section 6.2); the other
	// algorithms run exact. θ is 0 (exact) or a finite value of at least 1
	// for every algorithm: values in (0, 1), negative values, NaN and ±Inf
	// are rejected with ErrBadQuery.
	Theta float64
	// NoRandomAccess forbids random access (search-engine scenario);
	// with the default algorithm this selects NRA. An explicit AlgoTA
	// accepts it only when the database has one list, where TA needs no
	// random access; with more lists it is rejected. It composes with
	// Shards: the query then runs the sharded no-random-access mode
	// (one resumable NRA worker per shard) and performs zero random
	// accesses.
	NoRandomAccess bool
	// SortedLists, when non-empty, restricts sorted access to these
	// list indices (Section 7's Z); TA then behaves as TAz.
	SortedLists []int
	// CostAwareTA makes the TA engine cost-adaptive (the paper's CA
	// argument applied to TA's contract): sorted accesses are allocated
	// cheapest-threshold-drop-first (core.Delta) and random accesses
	// are spent one resolution phase every h ≈ cR/cS sorted-access
	// rounds instead of on every encountered object, with h derived from
	// the backends' declared cost models (Options.Costs when the lists
	// declare nothing). Answers carry exact grades and the same
	// true-grade multiset as plain TA; ties at the k-th grade are broken
	// arbitrarily, so tied object sets may differ. Composes with Shards
	// (each shard worker plans its own backends' costs). Requires the TA
	// algorithm with random access: combining it with another Algorithm,
	// NoRandomAccess, or θ-approximation is rejected with ErrBadQuery.
	CostAwareTA bool
	// OnProgress, when non-nil, is invoked by TA and NRA after every
	// sorted access (NRA: every sorted-access round; cost-aware TA: every
	// round, with only the exact-grade items, see core.CostAwareTA);
	// returning false stops early with the current view.
	OnProgress func(ProgressView) bool
	// Shards, when ≥ 1, partitions the database into that many
	// object-disjoint shards and answers the query with one concurrent
	// worker per shard (the sharded engine; see NewSharded for a
	// reusable handle that partitions only once). Zero (the default)
	// keeps the sequential path; AutoShards (-1) asks the engine to pick
	// the shard count from N, k and GOMAXPROCS; other negative values are
	// rejected with ErrBadQuery.
	//
	// With random access available (the default), workers run TA and the
	// answer is canonical — top k by (grade descending, ObjectID
	// ascending) — and identical for every shard count, including
	// Shards = 1. With NoRandomAccess set (or Algorithm AlgoNRA), each
	// shard runs a resumable NRA worker instead: sorted access only,
	// with the coordinator merging per-shard [W, B] grade intervals and
	// pushing workers past their local halting points until the global
	// intervals separate at rank k. That mode returns the exact top-k
	// *object set* with grade intervals, exactly like sequential NRA.
	//
	// Sharding supports the TA and NRA algorithms; θ-approximation,
	// sorted-access restriction (TAz) and OnProgress are rejected with
	// ErrBadQuery.
	Shards int
	// ShardWorkers bounds how many shard workers run concurrently when
	// Shards > 1; 0 means one goroutine per shard. Negative values are
	// rejected with ErrBadQuery.
	ShardWorkers int
	// Backend, when non-nil, wraps every list as a simulated remote
	// backend with the given per-access costs and latency distribution
	// before the query runs — the paper's middleware scenario with the
	// subsystem costs made real. It composes with Shards (each shard's
	// lists are wrapped; the highest-index StragglerShards shards get
	// their costs and latency multiplied by StragglerFactor) and with the
	// sequential path (one logical backend set). Stats.ChargedSorted /
	// ChargedRandom then report what the backends billed.
	Backend *BackendSpec
	// Cache, when non-nil, inserts a bounded page cache + random-access
	// memo between the query and the lists (above Backend when both are
	// set): sharded queries get one cache per shard, sequential queries
	// one cache in total. A cache configured through Options lives for a
	// single Query call — within it, repeated probes and re-read prefixes
	// are served from cache; use NewFaultyStack for a persistent engine
	// whose caches are shared across queries.
	Cache *CacheSpec
	// Schedule selects the sharded no-random-access scheduling policy:
	// ScheduleWave (the default) resumes every unresolved shard
	// concurrently; ScheduleCostAware serializes on the shard with the
	// best bound-tightening per unit of expected cost, minimizing charged
	// middleware cost on skewed backend sets. Non-auto values require the
	// sharded no-random-access mode; anything else is rejected with
	// ErrBadQuery.
	Schedule Schedule
	// Fault, when non-nil, wraps every list with a deterministic seeded
	// fault injector (above Backend, below Cache, when those are set):
	// transient failures at the given rate, periodic outage bursts, and
	// optionally one permanently dead list. Transient failures are retried
	// per Retry; a list lost for good fails the sequential query with an
	// error wrapping ErrBackend, while a sharded query degrades to a
	// θ-approximation over the surviving shards (see MinTheta). Requires a
	// failure-aware algorithm — TA (plain or cost-aware), NRA, CA, sharded
	// or not; FA, Naive and MaxTopK reject it with ErrBadQuery.
	Fault *FaultSpec
	// Retry is the retry policy for transient backend failures (errors
	// wrapping ErrBackend, except ErrListDown): capped exponential backoff
	// with deterministic jitter, bounded per access by MaxAttempts and per
	// query by Budget. The zero value resolves to DefaultRetry; set
	// MaxAttempts to 1 to disable retries. Negative bounds are rejected
	// with ErrBadQuery.
	Retry Retry
	// MinTheta is the weakest θ-approximation guarantee accepted when a
	// sharded query loses shards permanently and degrades (Section 6.2):
	// 0 accepts any finite certified θ; a value ≥ 1 fails the query when
	// the survivors certify only θ > MinTheta; values in (0, 1) are
	// rejected with ErrBadQuery. Requires Shards — the sequential path has
	// no surviving shards to degrade over.
	MinTheta float64
}

// FaultSpec configures the deterministic fault injector; see Options.Fault.
type FaultSpec struct {
	// Rate is the per-access probability of a transient failure, in [0, 1].
	Rate float64
	// BurstEvery opens an outage window every BurstEvery-th access on each
	// list; the window's BurstLen consecutive accesses (default 4) all fail
	// transiently. Zero disables bursts.
	BurstEvery int
	BurstLen   int
	// DeadList, when positive, kills list number DeadList (1-based) for
	// good: on the sequential path the logical list of that index, on the
	// sharded path that list of the highest-index shard — which loses
	// exactly one shard and exercises θ-degradation. Zero kills nothing.
	DeadList int
	// Hang stalls each injected failure for this long before returning it,
	// simulating a hung backend.
	Hang time.Duration
	// Seed drives the per-list failure schedules deterministically.
	Seed uint64
}

// plan resolves the spec into list i's fault plan. Each list gets a
// decorrelated seed; dead marks this list permanently down.
func (f *FaultSpec) plan(seed uint64, dead bool) access.FaultPlan {
	return access.FaultPlan{
		Seed:       f.Seed ^ (seed+1)*0x9e3779b97f4a7c15,
		Rate:       f.Rate,
		BurstEvery: f.BurstEvery,
		BurstLen:   f.BurstLen,
		Dead:       dead,
		Hang:       f.Hang,
	}
}

// AutoShards is the Options.Shards sentinel asking the engine to pick the
// shard count itself: P = shard.AutoShards(N, k, GOMAXPROCS), the E20
// cost-model heuristic (per-worker depth shrinks ≈ 1/P until shards run
// out of cores or objects). Zero still means the plain sequential path —
// auto-sharding must be opted into because the sharded path rejects
// sequential-only options (OnProgress, Theta, TAz).
const AutoShards = -1

// BackendSpec configures simulated remote backends; see Options.Backend.
// The zero value of each field takes the documented default.
type BackendSpec struct {
	// SortedCost and RandomCost are the per-access charges (the paper's
	// per-subsystem cS and cR). Both zero means "inherit Options.Costs".
	SortedCost float64
	RandomCost float64
	// Latency is the base simulated latency per access (both kinds); zero
	// injects none. Jitter spreads it uniformly over [1−J, 1+J]·Latency,
	// deterministically from Seed.
	Latency time.Duration
	Jitter  float64
	Seed    uint64
	// StragglerShards marks the highest-index shards as stragglers whose
	// costs and latency are multiplied by StragglerFactor (default 8) —
	// the skewed backend set a latency-aware scheduler exploits. Ignored
	// on the sequential path.
	StragglerShards int
	StragglerFactor float64
	// BatchRTT switches batched sorted reads to the batch round-trip
	// latency model: one full latency draw per batch plus a per-entry
	// marginal of BatchMarginal × Latency (default 0.1) for every entry
	// after the first, instead of a full independent draw per entry.
	// Single-entry accesses are unchanged. See access.Latency.BatchRTT.
	BatchRTT      bool
	BatchMarginal float64
}

// CacheSpec configures the per-shard page cache; see Options.Cache. Zero
// fields take access.CacheConfig's defaults (64-entry pages, 256 hot
// pages, a cold tier of 4× the hot pages charging 0.1 of the declared
// cost per hit, 4096 memoized grades). A negative PageSize, Pages or Memo
// is rejected with ErrBadQuery. Every field is a bound, not a size: the
// cache grows with what it holds, so a bound far beyond what a query
// reads costs nothing. Two caps bound what the cache sizes up front: its
// admission sketch is sized for at most 2^20 pages of Pages + ColdPages,
// and a PageSize above 2^16 entries is taken as 2^16.
type CacheSpec struct {
	// PageSize is the number of consecutive sorted positions one cached
	// page covers.
	PageSize int
	// Pages bounds the hot tier (hits free). ColdPages bounds the
	// TinyLFU-admission-controlled cold tier behind it: zero means 4×
	// Pages, saturating below math.MaxInt, negative disables the cold tier
	// (flat single-LRU cache). ColdHitCost is the fraction of the
	// backend's declared cost a cold-tier hit charges (zero means 0.1,
	// negative means free). Memo bounds the random-access memo.
	Pages       int
	ColdPages   int
	ColdHitCost float64
	Memo        int
}

// CacheStats is a cache's accounting snapshot — per-tier hits, misses,
// evictions and admission decisions; see access.CacheStats. Sharded
// engines report one per shard through Sharded.CacheStats and
// ShardOptions.OnShardStats.
type CacheStats = access.CacheStats

// Schedule selects the sharded no-random-access scheduling policy; see
// Options.Schedule.
type Schedule = shard.Schedule

// Available schedules.
const (
	// ScheduleAuto resolves to ScheduleWave.
	ScheduleAuto = shard.ScheduleAuto
	// ScheduleWave resumes every unresolved shard concurrently.
	ScheduleWave = shard.ScheduleWave
	// ScheduleCostAware resumes the shard with the best bound-tightening
	// per unit of expected cost, one at a time.
	ScheduleCostAware = shard.ScheduleCostAware
	// ScheduleAdaptive is ScheduleCostAware with observed-cost feedback:
	// bounded probe resumes feed a per-shard EWMA of observed per-round
	// latency that overrides the declared step costs, so the schedule
	// keeps its charged-cost savings even when backends' declared cost
	// models lie. With truthful backends (and always at one shard) it
	// degrades to the declared-cost schedule.
	ScheduleAdaptive = shard.ScheduleAdaptive
)

// TopK returns the top k objects of db under t using TA with unit costs.
func TopK(db *Database, t AggFunc, k int) (*Result, error) {
	return Query(db, t, k, Options{})
}

// Query runs a top-k query with full control over the algorithm, the
// access policy and the cost model. The returned Result carries the answer
// and the run's access accounting; Result.Cost(opts.Costs) is the paper's
// middleware cost.
func Query(db *Database, t AggFunc, k int, opts Options) (*Result, error) {
	pl, err := resolveQuery(target{db: db}, t, k, opts)
	if err != nil {
		return nil, err
	}
	return pl.run(db, t, k, opts)
}

// Sharded is a database partitioned once into object-disjoint shards for
// repeated sharded queries; it is immutable and safe for concurrent use.
type Sharded = shard.Engine

// ShardOptions configures one query on a Sharded handle.
type ShardOptions = shard.Options

// NewSharded partitions db into p object-disjoint shards and returns a
// reusable handle for the sharded concurrent engine. Use this instead of
// Options.Shards when issuing many queries: partitioning costs O(N·m) and
// a handle pays it once.
func NewSharded(db *Database, p int) (*Sharded, error) { return shard.New(db, p) }

// QuerySharded runs a query on a prebuilt engine — one from NewSharded or
// NewFaultyStack — under the same Options rules Query applies, so a query
// moved onto a reusable engine is accepted or rejected exactly as before.
// The engine fixes the shard count and the access stack: Backend, Fault
// and Cache must be nil, and Shards must be 0 or the count the engine was
// built with; anything else is rejected with ErrBadQuery.
func QuerySharded(eng *Sharded, t AggFunc, k int, opts Options) (*Result, error) {
	pl, err := resolveQuery(target{engine: eng}, t, k, opts)
	if err != nil {
		return nil, err
	}
	return eng.Query(t, k, pl.shard)
}

// NewFaultyStack partitions db into p shards and fronts each with the
// configured access stack, bottom to top: the shard's sorted lists, the
// simulated remote backends (when backend is non-nil), the deterministic
// fault injector (when fault is non-nil), and a per-shard cache shared
// across every query on the returned engine (when cache is non-nil) — so
// faults hit cache misses exactly like a flaky remote subsystem would, and
// cached entries keep serving reads while the backend misbehaves. Use it
// instead of NewSharded when queries should run against heterogeneous
// backend costs, simulated latency, injected faults or a persistent cache;
// Engine.CacheStats reports the per-shard hit rates. Queries on a faulty
// engine should set ShardOptions.Retry (zero resolves to DefaultRetry) and
// may bound degradation with ShardOptions.MinTheta.
func NewFaultyStack(db *Database, p int, backend *BackendSpec, fault *FaultSpec, cache *CacheSpec) (*Sharded, error) {
	m, _, err := dims(db)
	if err != nil {
		return nil, err
	}
	if p < 1 {
		return nil, fmt.Errorf("%w: shard count must be at least 1, got %d", ErrBadQuery, p)
	}
	if err := validateSpecs(m, backend, fault, cache); err != nil {
		return nil, err
	}
	return newShardedStack(db, p, backend, fault, cache, access.UnitCosts)
}

// newShardedStack is NewFaultyStack over checked arguments, with the cost
// model backends inherit when the spec declares none (a query's normalized
// Options.Costs).
func newShardedStack(db *Database, p int, backend *BackendSpec, fault *FaultSpec, cache *CacheSpec, base CostModel) (*Sharded, error) {
	dbs, err := db.Partition(p)
	if err != nil {
		return nil, err
	}
	shards := make([]shard.ShardBackend, len(dbs))
	for s, sdb := range dbs {
		shards[s] = buildShard(sdb, s, len(dbs), backend, fault, cache, base)
	}
	return shard.FromBackends(shards)
}

// buildShard fronts shard s of p with the access stack the specs configure
// — the one builder behind both the sequential path (shard 0 of 1) and the
// sharded engine. Bottom to top: the shard's lists, the simulated remote
// backends, the fault injector and the cache; base is the cost model
// backends inherit when the spec declares none. With no layer configured
// the shard reads its database directly (nil Lists). The specs must have
// passed validateSpecs.
func buildShard(sdb *Database, s, p int, backend *BackendSpec, fault *FaultSpec, cache *CacheSpec, base CostModel) shard.ShardBackend {
	sb := shard.ShardBackend{DB: sdb}
	if backend == nil && fault == nil && cache == nil {
		return sb
	}
	m := sdb.M()
	lists := make([]access.ListSource, m)
	for i := range lists {
		lists[i] = sdb.List(i)
	}
	if backend != nil {
		cm, lat := backend.forShard(s, p, base)
		for i := range lists {
			lists[i] = access.NewRemote(lists[i], cm, lat)
		}
	}
	if fault != nil {
		for i := range lists {
			dead := fault.DeadList > 0 && s == p-1 && i == fault.DeadList-1
			lists[i] = access.NewFaulty(lists[i], fault.plan(uint64(s*m+i), dead))
		}
	}
	if cache != nil {
		sb.Cache = access.NewCache(access.CacheConfig{
			PageSize:    cache.PageSize,
			Pages:       cache.Pages,
			ColdPages:   cache.ColdPages,
			ColdHitCost: cache.ColdHitCost,
			Memo:        cache.Memo,
		})
		lists = access.WrapLists(sb.Cache, lists)
	}
	sb.Lists = lists
	return sb
}

// forShard resolves the spec into shard s's cost model and latency
// distribution: the declared (or inherited) base costs, stretched by
// StragglerFactor on the StragglerShards highest-index shards.
func (b *BackendSpec) forShard(s, p int, base CostModel) (access.CostModel, access.Latency) {
	cm := CostModel{CS: b.SortedCost, CR: b.RandomCost}
	if cm.CS == 0 && cm.CR == 0 {
		cm = base
	}
	lat := access.Latency{
		Sorted:        b.Latency,
		Random:        b.Latency,
		Jitter:        b.Jitter,
		Seed:          b.Seed + uint64(s)*0x9e37, // decorrelate per-shard jitter
		BatchRTT:      b.BatchRTT,
		BatchMarginal: b.BatchMarginal,
	}
	if b.StragglerShards > 0 && s >= p-b.StragglerShards {
		f := b.StragglerFactor
		if f <= 0 {
			f = 8
		}
		cm.CS *= f
		cm.CR *= f
		lat.Sorted = time.Duration(float64(lat.Sorted) * f)
		lat.Random = time.Duration(float64(lat.Random) * f)
	}
	return cm, lat
}
