// Package access implements the middleware access model of Fagin, Lotem and
// Naor (PODS 2001): algorithms observe a database only through sorted access
// (proceeding down a list from the top, cost cS each) and random access
// (probing an object's grade in a list, cost cR each). The package provides
// the cost model, per-run accounting, capability policies (random access
// impossible, sorted access restricted to a subset Z of lists), and
// simulated subsystems standing in for the paper's QBIC/web sources.
//
// Costs are per backend, the way the paper's middleware sees them: a
// Backend declares what each of its accesses bills (AccessCosts; plain
// lists default to the global unit model), a CostedList prices each access
// individually (a Cache charges misses the wrapped backend's cost and hits
// nothing), and Stats accumulates both the raw access counts and the
// charged totals. Under uniform unit-cost backends the two coincide —
// Charged() == Accesses() — so the paper's count-based accounting is the
// special case of the charged one.
package access

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/model"
)

// CostModel carries the two positive access costs cS (sorted) and cR
// (random). The middleware cost of a run with s sorted and r random
// accesses is s·cS + r·cR.
type CostModel struct {
	CS float64 // cost of one sorted access
	CR float64 // cost of one random access
}

// UnitCosts is the cS = cR = 1 cost model used when only access counts
// matter.
var UnitCosts = CostModel{CS: 1, CR: 1}

// H returns h = ⌊cR/cS⌋, the random-access phase period of algorithm CA.
// The paper assumes cR ≥ cS in Section 8.2, so H ≥ 1 there; H clamps to a
// minimum of 1 so CA remains well-defined for any positive costs.
func (c CostModel) H() int {
	if c.CS <= 0 {
		panic("access: CostModel.CS must be positive")
	}
	h := int(c.CR / c.CS)
	if h < 1 {
		h = 1
	}
	return h
}

// Cost returns the middleware cost of the recorded accesses.
func (c CostModel) Cost(s Stats) float64 {
	return float64(s.Sorted)*c.CS + float64(s.Random)*c.CR
}

// Stats records everything an algorithm run consumed or touched. It is the
// measured quantity in all instance-optimality experiments, plus
// instrumentation (buffer occupancy, bookkeeping work) for the ablations.
type Stats struct {
	Sorted  int64   // total sorted accesses
	Random  int64   // total random accesses
	PerList []int64 // sorted-access depth reached in each list

	// ChargedSorted and ChargedRandom are the middleware costs the run's
	// backends actually billed: each access is charged its list's declared
	// cost model (Backend.AccessCosts; UnitCosts for plain lists), and a
	// middleware layer that absorbs an access — a cache hit — charges
	// nothing (CostedList). Under uniform unit-cost lists ChargedSorted
	// equals Sorted and ChargedRandom equals Random, so the paper's
	// count-based accounting is the special case.
	ChargedSorted float64
	ChargedRandom float64

	WildGuesses int64 // random accesses to objects never seen under sorted access

	MaxBuffered     int   // peak number of objects the algorithm retained
	BoundRecomputes int64 // B/W bound evaluations (NRA/CA bookkeeping metric)

	// Robustness counters. Faults and Retries are counted by the Source
	// (one Fault per failed access attempt, one Retry per attempt granted
	// by the retry policy); DeadShards is coordinator-level and folded in
	// by the sharded engine.
	Faults     int64 // failed access attempts observed
	Retries    int64 // retries the policy granted
	DeadShards int64 // shards lost permanently and degraded around
}

// Depth returns the maximum sorted depth over all lists (the paper's d).
func (s Stats) Depth() int64 {
	var d int64
	for _, p := range s.PerList {
		if p > d {
			d = p
		}
	}
	return d
}

// Accesses returns the total number of accesses of both kinds.
func (s Stats) Accesses() int64 { return s.Sorted + s.Random }

// Charged returns the total middleware cost the run's backends billed —
// the heterogeneous-cost generalization of CostModel.Cost, which prices
// every access identically. With uniform unit-cost backends and no cache,
// Charged equals Accesses.
func (s Stats) Charged() float64 { return s.ChargedSorted + s.ChargedRandom }

// Policy declares which access modes are available, modelling the paper's
// restricted scenarios. Zero value: everything allowed.
type Policy struct {
	// NoRandom forbids all random access (the search-engine scenario of
	// Section 2; algorithm NRA operates under this policy).
	NoRandom bool
	// SortedLists, when non-nil, is the set Z of list indices that allow
	// sorted access (Section 7's restricted scenario; TAz). Lists outside
	// Z allow only random access.
	SortedLists map[int]bool
}

// AllowAll is the unrestricted policy.
var AllowAll = Policy{}

// OnlySorted returns a policy permitting sorted access solely on the given
// lists (and random access everywhere), i.e. Section 7's Z.
func OnlySorted(lists ...int) Policy {
	z := make(map[int]bool, len(lists))
	for _, i := range lists {
		z[i] = true
	}
	return Policy{SortedLists: z}
}

// CanSorted reports whether sorted access is allowed on list i.
func (p Policy) CanSorted(i int) bool {
	if p.SortedLists == nil {
		return true
	}
	return p.SortedLists[i]
}

// CanRandom reports whether random access is allowed on list i.
func (p Policy) CanRandom(i int) bool { return !p.NoRandom }

// ListSource is one attribute list as a subsystem exposes it: positional
// reads for sorted access and keyed probes for random access. model.List
// satisfies it; so do the simulated remote subsystems in this package.
type ListSource interface {
	// Len is the number of entries in the list (the paper's N).
	Len() int
	// At returns the entry at sorted position pos (0-based from the top).
	At(pos int) model.Entry
	// GradeOf returns obj's grade, and whether obj is present.
	GradeOf(obj model.ObjectID) (model.Grade, bool)
}

// Violation is the panic value raised when an algorithm attempts an access
// its policy forbids; it indicates an algorithm bug, not an input error.
type Violation struct {
	Op   string
	List int
}

func (v Violation) Error() string {
	return fmt.Sprintf("access: %s access to list %d violates policy", v.Op, v.List)
}

// Source is a live, accounting view over a database: cursors for sorted
// access, keyed probes for random access, and capability flags. Every
// algorithm in internal/core runs against a Source and nothing else.
//
// A Source has one sorted read (SortedNextN; SortedNext is a batch of one)
// and one probe (Random), each implemented once with the failure contract:
// a context bound with BindContext is checked at access granularity,
// transient backend failures are retried per the Retry policy, and what
// the policy cannot absorb surfaces as an error wrapping ErrBackend. On a
// fault-free stack the error is always nil.
type Source struct {
	paths  []path      // per-list read and probe, resolved once by FromLists
	costs  []CostModel // per-list declared cost model (UnitCosts default)
	pos    []int       // next unread sorted position per list
	n      int         // entries per list (the paper's N)
	policy Policy
	stats  Stats

	// first and stride are the id layout every list reported (stride 0:
	// none), so Slot maps an id to a slot in [0, n) without a lookup. span
	// is n·stride (saturated): an id of the layout is first + d for some
	// d < span. recip, when nonzero, is ⌈2⁶⁴/stride⌉, which divides by the
	// stride without a divide instruction (setLayout).
	first  model.ObjectID
	stride uint64
	span   uint64
	recip  uint64

	seen    seenSet        // objects returned by sorted access (wild-guess detection; empty under NoRandom)
	costBuf []float64      // scratch for per-entry charged costs
	one     [1]model.Entry // SortedNext's one-entry buffer
	trace   *Trace         // optional access recorder

	// ctx, when bound, is checked at access granularity; retry is the
	// normalized per-query retry policy with retryLeft its remaining
	// budget.
	ctx       context.Context
	retry     Retry
	retryLeft int
	retrySeq  uint64

	// unitOnly marks a source whose every list bills exactly UnitCosts
	// (no cost-reporting backends), so the invariants build can assert the
	// middleware-cost identity Charged == Accesses at halt.
	unitOnly bool
}

// path is one list's access path, resolved once when the Source is built:
// read fills dst from sorted position pos and returns how many entries it
// delivered (the prefix is valid even with an error); when priced, it also
// writes each delivered entry's charged cost to costs, otherwise every
// entry bills the list's declared cS. probe answers one random access with
// its charged cost.
type path struct {
	read   func(pos int, dst []model.Entry, costs []float64) (int, error)
	probe  func(obj model.ObjectID) (model.Grade, bool, float64, error)
	priced bool
}

// resolvePath picks l's read and probe: the error-aware methods when l can
// actually fail (IsFallible), the plain ones otherwise; the costed batch
// read when l prices its accesses and the plain batch read when it does
// not.
func resolvePath(l ListSource, cm CostModel) path {
	if fl, ok := l.(FallibleList); ok && IsFallible(l) {
		p := path{
			read: func(pos int, dst []model.Entry, _ []float64) (int, error) {
				return fetchIntoErr(l, pos, dst)
			},
			probe: func(obj model.ObjectID) (model.Grade, bool, float64, error) {
				g, ok, err := fl.GradeOfErr(obj)
				return g, ok, cm.CR, err
			},
		}
		if fcb, ok := l.(FallibleCostedBatchList); ok {
			p.read, p.probe, p.priced = fcb.AtCostNErr, fcb.GradeOfCostErr, true
		}
		return p
	}
	p := path{
		read: func(pos int, dst []model.Entry, _ []float64) (int, error) {
			return fetchInto(l, pos, dst), nil
		},
		probe: func(obj model.ObjectID) (model.Grade, bool, float64, error) {
			g, ok := l.GradeOf(obj)
			return g, ok, cm.CR, nil
		},
	}
	if bl, ok := l.(BatchList); ok {
		p.read = func(pos int, dst []model.Entry, _ []float64) (int, error) {
			return bl.AtN(pos, dst), nil
		}
	}
	if cb, ok := l.(CostedBatchList); ok {
		p.read = func(pos int, dst []model.Entry, costs []float64) (int, error) {
			return cb.AtCostN(pos, dst, costs), nil
		}
		p.probe = func(obj model.ObjectID) (model.Grade, bool, float64, error) {
			g, ok, cost := cb.GradeOfCost(obj)
			return g, ok, cost, nil
		}
		p.priced = true
	}
	return p
}

// New creates a Source over db with the given policy.
func New(db *model.Database, policy Policy) *Source {
	lists := make([]ListSource, db.M())
	for i := 0; i < db.M(); i++ {
		lists[i] = db.List(i)
	}
	return FromLists(lists, policy)
}

// FromLists creates a Source over arbitrary list subsystems (all must have
// equal length).
func FromLists(lists []ListSource, policy Policy) *Source {
	if len(lists) == 0 {
		panic("access: need at least one list")
	}
	n := lists[0].Len()
	for i, l := range lists {
		if l.Len() != n {
			panic(fmt.Sprintf("access: list %d has %d entries, want %d", i, l.Len(), n))
		}
	}
	s := &Source{
		paths:    make([]path, len(lists)),
		costs:    make([]CostModel, len(lists)),
		pos:      make([]int, len(lists)),
		n:        n,
		policy:   policy,
		stats:    Stats{PerList: make([]int64, len(lists))},
		retry:    Retry{}.normalized(),
		unitOnly: true,
	}
	for i, l := range lists {
		s.costs[i] = BackendCosts(l)
		s.paths[i] = resolvePath(l, s.costs[i])
		if _, costed := l.(CostedList); costed || s.costs[i] != UnitCosts {
			s.unitOnly = false
		}
	}
	s.setLayout(idLayout(lists))
	return s
}

// setLayout records the id layout first, first + stride, … over the
// Source's n slots (stride 0: none) and precomputes what Slot divides by.
// For a stride above 1 whose layout spans at most 2³² ids, recip is
// c = ⌈2⁶⁴/stride⌉: for every d < 2³², d is a multiple of the stride iff
// the low 64 bits of c·d are below c, and then d/stride is the high 64
// bits of c·d (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). Wider layouts divide.
func (s *Source) setLayout(first model.ObjectID, stride uint64) {
	s.first, s.stride, s.span, s.recip = first, stride, 0, 0
	if stride == 0 {
		return
	}
	s.span = math.MaxUint64
	if hi, lo := bits.Mul64(uint64(s.n), stride); hi == 0 {
		s.span = lo
	}
	if stride > 1 && s.span <= 1<<32 {
		s.recip = math.MaxUint64/stride + 1
	}
}

// layoutList is a list that knows its ids form an arithmetic progression:
// model.List over dense ids, or a Partition shard of one.
type layoutList interface {
	IDLayout() (first model.ObjectID, stride int, ok bool)
}

// idLayout returns the id layout every list reports, or stride 0 when one
// reports none (a wrapping layer or sparse ids) or they disagree. Lists of
// one length and one layout hold the same objects.
func idLayout(lists []ListSource) (model.ObjectID, uint64) {
	var first model.ObjectID
	var stride int
	for i, l := range lists {
		ll, ok := l.(layoutList)
		if !ok {
			return 0, 0
		}
		f, st, ok := ll.IDLayout()
		if !ok || st < 1 || i > 0 && (f != first || st != stride) {
			return 0, 0
		}
		first, stride = f, st
	}
	return first, uint64(stride)
}

// M returns the number of lists.
func (s *Source) M() int { return len(s.paths) }

// N returns the number of objects (each list has one entry per object).
func (s *Source) N() int { return s.n }

// Slot maps obj to its slot in [0, N) when every list reported one
// arithmetic id layout (model.List.IDLayout): the i-th id of the
// progression has slot i. ok is false for an id outside the layout — below
// its first id, past its last, or off its stride — and for every id when
// the lists reported no layout, so a caller keeps its own index for those.
func (s *Source) Slot(obj model.ObjectID) (int, bool) {
	if s.stride == 0 {
		return 0, false
	}
	// Unsigned, so an id below first wraps past the last slot.
	d := uint64(obj) - uint64(s.first)
	switch {
	case d >= s.span:
		return 0, false
	case s.stride == 1:
		return int(d), true
	case s.recip != 0:
		// d < span ≤ 2³²: the direct-remainder test and quotient.
		if s.recip*d >= s.recip {
			return 0, false
		}
		q, _ := bits.Mul64(s.recip, d)
		return int(q), true
	}
	q, r := d/s.stride, d%s.stride
	if r != 0 {
		return 0, false
	}
	return int(q), true
}

// CanSorted reports whether the policy permits sorted access on list i.
func (s *Source) CanSorted(i int) bool { return s.policy.CanSorted(i) }

// CanRandom reports whether the policy permits random access on list i.
func (s *Source) CanRandom(i int) bool { return s.policy.CanRandom(i) }

// Exhausted reports whether sorted access on list i has consumed every
// entry.
func (s *Source) Exhausted(i int) bool { return s.pos[i] >= s.n }

// SortedNext performs one sorted access on list i: SortedNextN with a
// one-entry buffer. ok is false when the list is exhausted (no cost
// charged); the entry and ok are meaningful only when err is nil.
func (s *Source) SortedNext(i int) (model.Entry, bool, error) {
	if n, err := s.SortedNextN(i, s.one[:]); n == 0 || err != nil {
		return model.Entry{}, false, err
	}
	return s.one[0], true, nil
}

// SortedNextN performs up to len(buf) consecutive sorted accesses on list i
// in one call, filling buf from the front and returning how many entries it
// produced (0 when the list is exhausted, recorded in the trace as one
// failed access). The entries, per-entry charged costs, Stats deltas,
// seen-set updates and trace records are exactly those of the equivalent
// run of single accesses — batching amortizes call and bookkeeping
// overhead, not the paper's access accounting.
//
// The n returned entries are valid and fully accounted even when err is
// non-nil, so a caller processes the delivered prefix and then decides
// about the error. A transient mid-batch failure is retried in place and
// the fill resumes, so a successful call is indistinguishable from a
// fault-free one. It panics with Violation if the policy forbids sorted
// access on i.
func (s *Source) SortedNextN(i int, buf []model.Entry) (int, error) {
	if err := s.ctxErr(); err != nil {
		return 0, err
	}
	if !s.policy.CanSorted(i) {
		panic(Violation{Op: "sorted", List: i})
	}
	if len(buf) == 0 {
		return 0, nil
	}
	if s.pos[i] >= s.n {
		if s.trace != nil {
			s.trace.Entries = append(s.trace.Entries, TraceEntry{Sorted: true, List: i})
		}
		return 0, nil
	}
	if cap(s.costBuf) < len(buf) {
		s.costBuf = make([]float64, len(buf))
	}
	p := &s.paths[i]
	filled, attempt := 0, 1
	for {
		n, err := p.read(s.pos[i], buf[filled:], s.costBuf[filled:len(buf)])
		if p.priced {
			for _, c := range s.costBuf[filled : filled+n] {
				s.stats.ChargedSorted += c
			}
		} else {
			s.stats.ChargedSorted += float64(n) * s.costs[i].CS
		}
		s.pos[i] += n
		s.stats.Sorted += int64(n)
		s.stats.PerList[i] += int64(n)
		if !s.policy.NoRandom {
			// Only Random reads the seen set, and the policy forbids it.
			for _, e := range buf[filled : filled+n] {
				s.seen.add(e.Object)
			}
		}
		if s.trace != nil {
			for _, e := range buf[filled : filled+n] {
				s.trace.Entries = append(s.trace.Entries, TraceEntry{
					Sorted: true, List: i, Object: e.Object, Grade: e.Grade, OK: true,
				})
			}
		}
		filled += n
		if err == nil {
			// A read that does not fail delivers the whole request, or
			// everything down to the list's end.
			return filled, nil
		}
		if n > 0 {
			attempt = 1 // progress: the next failure starts a fresh attempt run
		}
		if rerr := s.noteFault(err, attempt); rerr != nil {
			return filled, rerr
		}
		attempt++
		if filled == len(buf) || s.pos[i] >= s.n {
			return filled, nil
		}
	}
}

// Random performs one random access: obj's grade in list i. ok is false if
// obj is absent (never the case for well-formed databases); the grade and
// ok are meaningful only when err is nil. A transient failure is retried
// per the Retry policy. It panics with Violation if the policy forbids
// random access on i.
func (s *Source) Random(i int, obj model.ObjectID) (model.Grade, bool, error) {
	if err := s.ctxErr(); err != nil {
		return 0, false, err
	}
	if !s.policy.CanRandom(i) {
		panic(Violation{Op: "random", List: i})
	}
	for attempt := 1; ; attempt++ {
		g, ok, cost, err := s.paths[i].probe(obj)
		if err == nil {
			if !ok {
				if s.trace != nil {
					s.trace.Entries = append(s.trace.Entries, TraceEntry{List: i, Object: obj})
				}
				return 0, false, nil
			}
			s.stats.Random++
			s.stats.ChargedRandom += cost
			if !s.seen.has(obj) {
				s.stats.WildGuesses++
			}
			if s.trace != nil {
				s.trace.Entries = append(s.trace.Entries, TraceEntry{
					List: i, Object: obj, Grade: g, OK: true,
				})
			}
			return g, true, nil
		}
		if rerr := s.noteFault(err, attempt); rerr != nil {
			return 0, false, rerr
		}
	}
}

// ReportBuffer lets an algorithm report its current buffered-object count;
// the peak is recorded (Theorem 4.2's bounded-buffer measurement).
func (s *Source) ReportBuffer(n int) {
	if invariantsEnabled && !(n >= 0 && n <= s.N()) {
		invariantViolated("buffer occupancy %d outside [0, N=%d]", n, s.N())
	}
	if n > s.stats.MaxBuffered {
		s.stats.MaxBuffered = n
	}
}

// CountBoundRecompute increments the B/W bound evaluation counter by n
// (Remark 8.7's bookkeeping-cost measurement).
func (s *Source) CountBoundRecompute(n int64) { s.stats.BoundRecomputes += n }

// Counts returns the running sorted- and random-access totals without
// copying the full Stats (the per-access progress hooks read these on the
// hot path).
func (s *Source) Counts() (sorted, random int64) {
	return s.stats.Sorted, s.stats.Random
}

// AccessCost returns list i's declared cost model (UnitCosts for plain
// lists). Cost-aware planners read these as priors: a cache above the
// backend may bill less per access, never more.
func (s *Source) AccessCost(i int) CostModel { return s.costs[i] }

// SortedRoundCost returns the declared cost of one parallel sorted-access
// round — Σ cS over the lists the policy permits sorted access on. It is
// the expected per-round charge a scheduler weighs a resume against; a
// cache above a backend may bill less, never more.
func (s *Source) SortedRoundCost() float64 {
	var c float64
	for i := range s.costs {
		if s.policy.CanSorted(i) {
			c += s.costs[i].CS
		}
	}
	return c
}

// Stats returns a copy of the accumulated accounting.
func (s *Source) Stats() Stats {
	if invariantsEnabled && s.unitOnly {
		// Under unit costs with no cost-reporting backends, the charged
		// middleware cost is definitionally the access count.
		if s.stats.ChargedSorted != float64(s.stats.Sorted) {
			invariantViolated("unit-cost source charged %v for %d sorted accesses", s.stats.ChargedSorted, s.stats.Sorted)
		}
		if s.stats.ChargedRandom != float64(s.stats.Random) {
			invariantViolated("unit-cost source charged %v for %d random accesses", s.stats.ChargedRandom, s.stats.Random)
		}
	}
	out := s.stats
	out.PerList = make([]int64, len(s.stats.PerList))
	copy(out.PerList, s.stats.PerList)
	return out
}

// Reset rewinds all cursors and zeroes the accounting so the same Source
// can serve another run. Internal index capacity (the seen-set, per-list
// slices) is retained, so a pooled Source resets without reallocating. The
// previous query's context binding is dropped and the retry budget
// re-armed; the retry policy itself persists until SetRetry changes it.
func (s *Source) Reset() {
	for i := range s.pos {
		s.pos[i] = 0
	}
	perList := s.stats.PerList
	clear(perList)
	s.stats = Stats{PerList: perList}
	s.seen.reset()
	s.ctx = nil
	s.retryLeft = s.retry.Budget
	s.retrySeq = 0
}

// ResetFor is Reset plus a policy swap: a pooled Source recycled for a new
// query adopts that query's access policy without reallocating indexes.
func (s *Source) ResetFor(policy Policy) {
	s.policy = policy
	s.Reset()
}
