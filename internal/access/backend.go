package access

import (
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Backend is a ListSource that also declares what each of its accesses
// costs the middleware — the paper's per-subsystem cS/cR, made explicit so
// heterogeneous sources (a fast local index next to a slow web subsystem)
// can sit behind one query. Plain ListSources that do not implement Backend
// are charged UnitCosts.
type Backend interface {
	ListSource
	// AccessCosts returns the backend's declared cost model: CS is charged
	// per sorted access and CR per random access served by this backend.
	AccessCosts() CostModel
}

// BackendCosts returns l's declared cost model when l is a Backend and
// UnitCosts otherwise — the rule every accounting layer uses, so a plain
// model.List keeps the paper's cS = cR = 1 accounting unchanged.
func BackendCosts(l ListSource) CostModel {
	if b, ok := l.(Backend); ok {
		return b.AccessCosts()
	}
	return UnitCosts
}

// CostedList is a ListSource whose accesses carry an individual charged
// cost instead of a flat per-backend one. A cache layer implements it: a
// hit costs the middleware nothing, a miss costs the wrapped backend's
// declared access cost. A Source reads a list that prices its accesses
// through CostedBatchList — AtCostN for sorted reads, GradeOfCost for
// probes — so per-query Stats charge exactly what the backends behind any
// middleware layers actually billed; a pricing list implements the batch
// form too.
type CostedList interface {
	ListSource
	// AtCost is At plus the charged cost of this particular access.
	AtCost(pos int) (model.Entry, float64)
	// GradeOfCost is GradeOf plus the charged cost of this access.
	GradeOfCost(obj model.ObjectID) (model.Grade, bool, float64)
}

// BatchList is a ListSource that can serve a run of consecutive sorted
// positions in one call — the batch half of the columnar access contract.
// Batching changes only how entries move (one call, contiguous column
// copies), never what is read or charged: AtN(pos, dst) must return exactly
// the entries At(pos), At(pos+1), … would, and accounting layers above
// still charge each entry individually. model.List implements it directly
// from its columns; middleware layers (Remote, Cache, SharedScan) forward
// or fill per batch while keeping their per-entry semantics intact.
type BatchList interface {
	ListSource
	// AtN fills dst with the entries at consecutive sorted positions pos,
	// pos+1, … and returns how many were written:
	// min(len(dst), Len()-pos), 0 at or past the end.
	AtN(pos int, dst []model.Entry) int
}

// CostedBatchList is a CostedList that serves batched sorted access with
// per-entry charged costs — what a cache exposes so a batch read can mix
// free hits and billed misses in one call.
type CostedBatchList interface {
	CostedList
	// AtCostN is AtN plus each entry's individual charged cost, written to
	// costs (len(costs) ≥ len(dst) is the caller's obligation). The n
	// returned entries and costs must equal what n AtCost calls at pos,
	// pos+1, … would have produced against the same starting state.
	AtCostN(pos int, dst []model.Entry, costs []float64) int
}

// fetchInto reads up to len(dst) consecutive entries from l starting at
// pos, using the batch path when l supports it and a per-entry loop
// otherwise. It returns how many entries were written.
func fetchInto(l ListSource, pos int, dst []model.Entry) int {
	if bl, ok := l.(BatchList); ok {
		return bl.AtN(pos, dst)
	}
	n := l.Len() - pos
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = l.At(pos + i)
	}
	return n
}

// Latency describes a simulated access-latency distribution for a Remote
// backend. All fields are optional; the zero value injects no latency.
type Latency struct {
	// Sorted and Random are the base latencies of one sorted / random
	// access. Zero disables sleeping for that access kind.
	Sorted time.Duration
	Random time.Duration
	// Jitter spreads each access latency uniformly over
	// base·[1−Jitter, 1+Jitter] (0 ≤ Jitter ≤ 1), deterministically from
	// Seed and the access sequence number.
	Jitter float64
	// StragglerEvery makes every n-th access a straggler whose latency is
	// multiplied by StragglerFactor (default 10). Zero disables stragglers.
	StragglerEvery  int
	StragglerFactor float64
	// Seed makes the jitter sequence reproducible.
	Seed uint64
	// BatchRTT switches batched sorted reads (AtN/AtNErr) to a batch
	// round-trip model: the batch pays one full latency draw — consuming
	// exactly one slot of the jitter/straggler sequence, like a single
	// access — plus a deterministic per-entry marginal of
	// BatchMarginal × Sorted for every entry after the first. A
	// one-entry batch and the single-entry paths (At, AtErr, GradeOf)
	// are unchanged. Off by default: every batched entry pays its own
	// full draw, as if fetched one at a time.
	BatchRTT bool
	// BatchMarginal is the per-additional-entry latency fraction under
	// BatchRTT (default 0.1; it is a fraction of the base Sorted
	// latency, un-jittered — the batch's single draw already carried the
	// round trip's variance).
	BatchMarginal float64
}

// Remote wraps a ListSource as a simulated remote backend: every access is
// charged the declared cost model and sleeps per the latency distribution,
// standing in for the paper's autonomous subsystems (QBIC, web sources)
// whose access costs differ by orders of magnitude. It is safe for
// concurrent use whenever the wrapped source is.
type Remote struct {
	src   ListSource
	costs CostModel
	lat   Latency

	seq     atomic.Uint64 // access sequence number (jitter/straggler schedule)
	sleptNS atomic.Int64  // total injected latency
}

// NewRemote wraps src with the given cost model and latency distribution.
// A zero cost model means unit costs.
func NewRemote(src ListSource, costs CostModel, lat Latency) *Remote {
	if costs.CS == 0 && costs.CR == 0 {
		costs = UnitCosts
	}
	return &Remote{src: src, costs: costs, lat: lat}
}

// Len implements ListSource; length is metadata, not an access, so it is
// neither charged nor delayed.
func (r *Remote) Len() int { return r.src.Len() }

// At implements ListSource, sleeping per the sorted-access latency.
func (r *Remote) At(pos int) model.Entry {
	r.delay(r.lat.Sorted)
	return r.src.At(pos)
}

// GradeOf implements ListSource, sleeping per the random-access latency.
func (r *Remote) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	r.delay(r.lat.Random)
	return r.src.GradeOf(obj)
}

// AtN implements BatchList. By default each entry pays its own simulated
// latency (the same jitter/straggler sequence n single At calls would
// consume), so batching changes call overhead, not the modeled access
// cost. With Latency.BatchRTT set the batch instead pays one round-trip
// draw plus the per-entry marginal — the model of a real batch RPC, where
// n entries share one wire round trip.
func (r *Remote) AtN(pos int, dst []model.Entry) int {
	n := r.src.Len() - pos
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	r.delayBatch(r.lat.Sorted, n)
	return fetchInto(r.src, pos, dst[:n])
}

// AccessCosts implements Backend.
func (r *Remote) AccessCosts() CostModel { return r.costs }

// Fallible reports whether the wrapped source can fail; latency simulation
// itself never fails, so a Remote over an infallible list keeps the
// infallible fast path.
func (r *Remote) Fallible() bool { return IsFallible(r.src) }

// AtErr implements FallibleList, sleeping the sorted-access latency before
// consulting the wrapped source (a failed access still paid the trip).
func (r *Remote) AtErr(pos int) (model.Entry, error) {
	r.delay(r.lat.Sorted)
	return atErr(r.src, pos)
}

// GradeOfErr implements FallibleList.
func (r *Remote) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	r.delay(r.lat.Random)
	return gradeOfErr(r.src, obj)
}

// AtNErr implements FallibleBatchList: like AtN, the batch pays per-entry
// draws by default and one round trip plus per-entry marginals under
// BatchRTT; entries past the first failure were neither delivered nor
// delayed (under BatchRTT the round trip itself was still paid — a failed
// batch RPC travelled the wire).
func (r *Remote) AtNErr(pos int, dst []model.Entry) (int, error) {
	n := r.src.Len() - pos
	if n <= 0 {
		return 0, nil
	}
	if n > len(dst) {
		n = len(dst)
	}
	if !IsFallible(r.src) {
		return r.AtN(pos, dst), nil
	}
	batched := r.lat.BatchRTT && n > 1
	if batched {
		r.delay(r.lat.Sorted)
	}
	for i := 0; i < n; i++ {
		if batched {
			if i > 0 {
				r.sleepMarginal(r.lat.Sorted, 1)
			}
		} else {
			r.delay(r.lat.Sorted)
		}
		e, err := atErr(r.src, pos+i)
		if err != nil {
			return i, err
		}
		dst[i] = e
	}
	return n, nil
}

// SimulatedLatency returns the total latency injected so far.
func (r *Remote) SimulatedLatency() time.Duration {
	return time.Duration(r.sleptNS.Load())
}

// delay sleeps for one access: base latency, spread by the jitter
// distribution, stretched on straggler accesses.
func (r *Remote) delay(base time.Duration) {
	if base <= 0 {
		return
	}
	n := r.seq.Add(1)
	d := float64(base)
	if r.lat.Jitter > 0 {
		u := unitFloat(splitmix64(r.lat.Seed + n))
		d *= 1 + r.lat.Jitter*(2*u-1)
	}
	if r.lat.StragglerEvery > 0 && n%uint64(r.lat.StragglerEvery) == 0 {
		f := r.lat.StragglerFactor
		if f <= 0 {
			f = 10
		}
		d *= f
	}
	dur := time.Duration(d)
	if dur <= 0 {
		return
	}
	r.sleptNS.Add(int64(dur))
	time.Sleep(dur)
}

// delayBatch sleeps for a batch of n sorted accesses: n independent draws
// by default, or — under BatchRTT — one full draw (consuming exactly one
// slot of the jitter/straggler sequence) plus the deterministic per-entry
// marginal for the n−1 entries riding the same round trip. A one-entry
// batch is indistinguishable from a single access in both modes.
func (r *Remote) delayBatch(base time.Duration, n int) {
	if n <= 0 || base <= 0 {
		return
	}
	if !r.lat.BatchRTT || n == 1 {
		for i := 0; i < n; i++ {
			r.delay(base)
		}
		return
	}
	r.delay(base)
	r.sleepMarginal(base, n-1)
}

// sleepMarginal injects the per-entry marginal of a batched round trip:
// count entries at BatchMarginal × base each. The marginal is
// deterministic — no jitter draw, the batch's single delay already
// consumed the schedule slot — so a batch's total latency is one draw
// plus a linear term.
func (r *Remote) sleepMarginal(base time.Duration, count int) {
	if base <= 0 || count <= 0 {
		return
	}
	m := r.lat.BatchMarginal
	if m <= 0 {
		m = 0.1
	}
	dur := time.Duration(m * float64(base) * float64(count))
	if dur <= 0 {
		return
	}
	r.sleptNS.Add(int64(dur))
	time.Sleep(dur)
}

// Misdeclared wraps a backend whose advertised cost model lies: the
// declared costs (AccessCosts — the prior every cost-aware planner reads)
// are whatever the wrapper claims, while each access still bills the
// wrapped backend's true cost and takes its true time. It models the
// operational reality the paper's clean cost model hides — an autonomous
// subsystem's published price list drifting from what it actually charges —
// and is the fixture the EWMA observed-cost estimator is tested against:
// declared-cost scheduling trusts the lie, adaptive scheduling learns the
// truth from observed latency.
type Misdeclared struct {
	backend  Backend
	declared CostModel
}

// NewMisdeclared wraps backend with a lying declared cost model.
func NewMisdeclared(backend Backend, declared CostModel) *Misdeclared {
	if declared.CS == 0 && declared.CR == 0 {
		declared = UnitCosts
	}
	return &Misdeclared{backend: backend, declared: declared}
}

// Len implements ListSource.
func (m *Misdeclared) Len() int { return m.backend.Len() }

// At implements ListSource (the wrapped backend sleeps its true latency).
func (m *Misdeclared) At(pos int) model.Entry { return m.backend.At(pos) }

// GradeOf implements ListSource.
func (m *Misdeclared) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	return m.backend.GradeOf(obj)
}

// AccessCosts implements Backend: the lie.
func (m *Misdeclared) AccessCosts() CostModel { return m.declared }

// AtCost implements CostedList through AtCostErr: the access bills the
// wrapped backend's true sorted cost, whatever was declared.
func (m *Misdeclared) AtCost(pos int) (model.Entry, float64) { return must2(m.AtCostErr(pos)) }

// GradeOfCost implements CostedList through GradeOfCostErr: the true
// random-access cost.
func (m *Misdeclared) GradeOfCost(obj model.ObjectID) (model.Grade, bool, float64) {
	return must3(m.GradeOfCostErr(obj))
}

// AtCostN implements CostedBatchList through AtCostNErr.
func (m *Misdeclared) AtCostN(pos int, dst []model.Entry, costs []float64) int {
	return must(m.AtCostNErr(pos, dst, costs))
}

// Fallible reports whether the wrapped backend can fail; lying about costs
// does not make accesses fail.
func (m *Misdeclared) Fallible() bool { return IsFallible(m.backend) }

// AtErr implements FallibleList.
func (m *Misdeclared) AtErr(pos int) (model.Entry, error) { return atErr(m.backend, pos) }

// GradeOfErr implements FallibleList.
func (m *Misdeclared) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	return gradeOfErr(m.backend, obj)
}

// AtCostErr implements FallibleCostedList: a delivered entry bills the
// wrapped backend's true sorted cost, whatever was declared; a failed one
// bills nothing.
func (m *Misdeclared) AtCostErr(pos int) (model.Entry, float64, error) {
	e, err := atErr(m.backend, pos)
	if err != nil {
		return model.Entry{}, 0, err
	}
	return e, m.backend.AccessCosts().CS, nil
}

// GradeOfCostErr implements FallibleCostedList: the true random-access
// cost.
func (m *Misdeclared) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	g, ok, err := gradeOfErr(m.backend, obj)
	if err != nil {
		return 0, false, 0, err
	}
	return g, ok, m.backend.AccessCosts().CR, nil
}

// AtCostNErr implements FallibleCostedBatchList: every delivered entry of
// the batch bills the wrapped backend's true sorted cost.
func (m *Misdeclared) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	n, err := fetchIntoErr(m.backend, pos, dst)
	cs := m.backend.AccessCosts().CS
	for i := 0; i < n; i++ {
		costs[i] = cs
	}
	return n, err
}

// splitmix64 is the SplitMix64 mixer — a tiny, allocation-free way to turn
// (seed, sequence-number) into reproducible jitter without a locked
// rand.Rand shared across goroutines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a 64-bit hash to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}
