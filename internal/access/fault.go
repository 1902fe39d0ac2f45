package access

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// ErrBackend is the identity of every injected or real backend failure in
// the access layer. It is deliberately distinct from core.ErrBadQuery: a
// bad query is the caller's fault and retrying cannot help, a backend
// failure is the environment's fault and retry/degradation policy applies.
// Every error a fallible access path returns (other than a context error)
// wraps ErrBackend via %w, so callers branch with errors.Is.
//
//lint:notbadquery ErrBackend is the backend-failure sentinel itself; it cannot wrap itself
var ErrBackend = errors.New("access: backend failure")

// ErrListDown marks a permanent backend failure: the list is gone and
// retrying is pointless. It wraps ErrBackend, so errors.Is(err, ErrBackend)
// still matches; retry layers additionally test ErrListDown to give up
// immediately and let shard-level degradation take over.
var ErrListDown = fmt.Errorf("list permanently down: %w", ErrBackend)

// FallibleList is the error-aware half of the access contract: a ListSource
// whose reads can fail. The infallible At/GradeOf remain for fault-free
// callers; layers that can actually fail (Faulty, anything wrapping it)
// implement the Err variants and panic with the error from the infallible
// methods, so a fault can never masquerade as an exhausted list.
type FallibleList interface {
	ListSource
	// AtErr is At with an error path. The entry is valid iff err is nil.
	AtErr(pos int) (model.Entry, error)
	// GradeOfErr is GradeOf with an error path.
	GradeOfErr(obj model.ObjectID) (model.Grade, bool, error)
}

// FallibleBatchList serves batched sorted access with an error path. A
// failed fill may still deliver a prefix: the n returned entries are valid
// even when err is non-nil, and the caller accounts them before handling
// the error.
type FallibleBatchList interface {
	FallibleList
	// AtNErr fills dst from consecutive positions pos, pos+1, … and returns
	// how many entries it wrote before stopping. n < len(dst) with a nil
	// error means end of list.
	AtNErr(pos int, dst []model.Entry) (int, error)
}

// FallibleCostedList is a FallibleList whose accesses carry individual
// charged costs (the error-aware mirror of CostedList). A failed access
// charges nothing.
type FallibleCostedList interface {
	FallibleList
	AtCostErr(pos int) (model.Entry, float64, error)
	GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error)
}

// FallibleCostedBatchList is the batched, costed, error-aware corner of the
// contract — what a cache over a faulty backend exposes so one batch read
// can mix free hits, billed misses, and a mid-run failure.
type FallibleCostedBatchList interface {
	FallibleCostedList
	// AtCostNErr is AtNErr plus each delivered entry's charged cost written
	// to costs. The n delivered entries and costs are valid even when err
	// is non-nil.
	AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error)
}

// IsFallible reports whether l can actually fail. Wrappers (Remote, the
// cache, SharedScan views) implement the Err methods unconditionally but
// report Fallible() from their inner source, so a fault-free stack keeps
// the infallible fast path even through middleware layers.
func IsFallible(l ListSource) bool {
	if f, ok := l.(interface{ Fallible() bool }); ok {
		return f.Fallible()
	}
	_, ok := l.(FallibleList)
	return ok
}

// atErr reads one entry through l's fallible path when it has one and the
// plain path otherwise.
func atErr(l ListSource, pos int) (model.Entry, error) {
	if fl, ok := l.(FallibleList); ok {
		return fl.AtErr(pos)
	}
	return l.At(pos), nil
}

// gradeOfErr probes one grade through l's fallible path when it has one.
func gradeOfErr(l ListSource, obj model.ObjectID) (model.Grade, bool, error) {
	if fl, ok := l.(FallibleList); ok {
		return fl.GradeOfErr(obj)
	}
	g, ok := l.GradeOf(obj)
	return g, ok, nil
}

// must, must2 and must3 are how the infallible access methods of a layer
// that can fail surface a fault: they return the error-aware twin's values
// and panic with its error, so a fault can never masquerade as an exhausted
// list or a fabricated entry.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[T, U any](v T, w U, err error) (T, U) {
	if err != nil {
		panic(err)
	}
	return v, w
}

func must3[T, U, V any](v T, w U, x V, err error) (T, U, V) {
	if err != nil {
		panic(err)
	}
	return v, w, x
}

// fetchIntoErr is fetchInto with an error path: it reads up to len(dst)
// consecutive entries from l starting at pos and returns the count written
// before the error (the delivered prefix is valid).
func fetchIntoErr(l ListSource, pos int, dst []model.Entry) (int, error) {
	if fb, ok := l.(FallibleBatchList); ok {
		return fb.AtNErr(pos, dst)
	}
	if fl, ok := l.(FallibleList); ok {
		n := l.Len() - pos
		if n <= 0 {
			return 0, nil
		}
		if n > len(dst) {
			n = len(dst)
		}
		for i := 0; i < n; i++ {
			e, err := fl.AtErr(pos + i)
			if err != nil {
				return i, err
			}
			dst[i] = e
		}
		return n, nil
	}
	return fetchInto(l, pos, dst), nil
}

// FaultPlan configures a Faulty wrapper: a deterministic, seeded fault
// schedule driven by the wrapper's access sequence number, so the same
// (plan, access sequence) always fails the same accesses. The zero value
// injects nothing.
type FaultPlan struct {
	// Seed drives the transient-failure schedule.
	Seed uint64
	// Rate is the per-access probability of a transient failure in [0, 1].
	Rate float64
	// BurstEvery opens an outage window every BurstEvery-th access: the
	// window's BurstLen consecutive accesses all fail transiently (a retry
	// consumes an access, so a burst stalls retries for its whole length).
	// Zero disables bursts; BurstLen defaults to 4 when a period is set.
	BurstEvery int
	BurstLen   int
	// Dead makes every access fail permanently with ErrListDown.
	Dead bool
	// Hang stalls each injected failure for this long before returning it,
	// simulating a hung backend whose caller eventually times out.
	Hang time.Duration
}

// Faulty wraps a ListSource with an injected, deterministic fault schedule.
// It implements the full fallible contract; its infallible At/GradeOf/AtN
// panic with the injected error so a fault can never be mistaken for an
// exhausted list by a caller that ignored the error path. Every read is
// AtCostNErr and every probe GradeOfCostErr; the other access methods are
// views of those two. It reaches the wrapped list through its error-aware
// methods, and through its priced ones when the list prices its accesses
// (a cache, Misdeclared), so it composes with Remote, Misdeclared and the
// cache in any order; over a list that does not price, it bills the
// declared flat cost. It is safe for concurrent use whenever the wrapped
// source is.
type Faulty struct {
	src    ListSource
	priced FallibleCostedBatchList // non-nil when src prices accesses individually
	costs  CostModel
	plan   FaultPlan

	seq      atomic.Uint64 // access sequence number (fault schedule position)
	injected atomic.Int64  // failures injected so far
}

// NewFaulty wraps src with the given fault plan.
func NewFaulty(src ListSource, plan FaultPlan) *Faulty {
	if plan.Rate < 0 || plan.Rate > 1 {
		panic(fmt.Sprintf("access: FaultPlan.Rate %v outside [0, 1]", plan.Rate))
	}
	if plan.BurstEvery > 0 && plan.BurstLen <= 0 {
		plan.BurstLen = 4
	}
	priced, _ := src.(FallibleCostedBatchList)
	return &Faulty{src: src, priced: priced, costs: BackendCosts(src), plan: plan}
}

// Injected returns how many failures the wrapper has injected so far.
func (f *Faulty) Injected() int64 { return f.injected.Load() }

// Fallible marks the wrapper as genuinely able to fail.
func (f *Faulty) Fallible() bool { return true }

// fault advances the access sequence and returns the injected error for
// this access, or nil when the access goes through.
func (f *Faulty) fault() error {
	n := f.seq.Add(1)
	var err error
	switch {
	case f.plan.Dead:
		err = fmt.Errorf("access %d: %w", n, ErrListDown)
	case f.plan.BurstEvery > 0 && n%uint64(f.plan.BurstEvery) < uint64(f.plan.BurstLen):
		err = fmt.Errorf("injected burst failure at access %d: %w", n, ErrBackend)
	case f.plan.Rate > 0 && unitFloat(splitmix64(f.plan.Seed+n)) < f.plan.Rate:
		err = fmt.Errorf("injected transient failure at access %d: %w", n, ErrBackend)
	default:
		return nil
	}
	f.injected.Add(1)
	if f.plan.Hang > 0 {
		time.Sleep(f.plan.Hang)
	}
	return err
}

// Len implements ListSource; metadata, never faulted.
func (f *Faulty) Len() int { return f.src.Len() }

// At implements ListSource for fault-free callers; an injected fault panics
// with the error rather than returning a fabricated entry.
func (f *Faulty) At(pos int) model.Entry { return must(f.AtErr(pos)) }

// GradeOf implements ListSource; an injected fault panics with the error.
func (f *Faulty) GradeOf(obj model.ObjectID) (model.Grade, bool) { return must2(f.GradeOfErr(obj)) }

// AtN implements BatchList; an injected fault panics with the error.
func (f *Faulty) AtN(pos int, dst []model.Entry) int { return must(f.AtNErr(pos, dst)) }

// AccessCosts implements Backend, passing through the wrapped declaration.
func (f *Faulty) AccessCosts() CostModel { return f.costs }

// AtErr implements FallibleList as a one-entry read.
func (f *Faulty) AtErr(pos int) (model.Entry, error) {
	e, _, err := f.AtCostErr(pos)
	return e, err
}

// GradeOfErr implements FallibleList through GradeOfCostErr.
func (f *Faulty) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	g, ok, _, err := f.GradeOfCostErr(obj)
	return g, ok, err
}

// AtNErr implements FallibleBatchList as AtCostNErr billing nothing.
func (f *Faulty) AtNErr(pos int, dst []model.Entry) (int, error) {
	return f.AtCostNErr(pos, dst, nil)
}

// AtCostErr implements FallibleCostedList as AtCostNErr of one entry. A
// position past the end still takes its slot of the fault schedule, then
// fails as the wrapped list does.
func (f *Faulty) AtCostErr(pos int) (model.Entry, float64, error) {
	var e [1]model.Entry
	var cost [1]float64
	n, err := f.AtCostNErr(pos, e[:], cost[:])
	if n == 0 && err == nil {
		if err = f.fault(); err == nil {
			e[0], err = atErr(f.src, pos)
		}
	}
	return e[0], cost[0], err
}

// AtCostNErr implements FallibleCostedBatchList: each entry of the batch
// consumes one slot of the fault schedule, in order, exactly as the
// equivalent AtCostErr calls would, and the prefix delivered before the
// first fault is valid. The prefix comes from the wrapped list's priced
// read when it prices its accesses and costs are asked for, so per-entry
// billing survives the wrapper; otherwise each delivered entry bills the
// declared cS. A nil costs bills nothing.
func (f *Faulty) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	n := min(f.src.Len()-pos, len(dst))
	var ferr error
	allowed := 0
	for ; allowed < n; allowed++ {
		if ferr = f.fault(); ferr != nil {
			break
		}
	}
	if allowed == 0 {
		return 0, ferr
	}
	var got int
	var err error
	if f.priced != nil && costs != nil {
		got, err = f.priced.AtCostNErr(pos, dst[:allowed], costs[:allowed])
	} else {
		got, err = fetchIntoErr(f.src, pos, dst[:allowed])
		if costs != nil {
			for i := range got {
				costs[i] = f.costs.CS
			}
		}
	}
	if err == nil {
		err = ferr
	}
	return got, err
}

// GradeOfCostErr implements FallibleCostedList: the probe takes one slot of
// the fault schedule, then goes to the wrapped list's priced probe when it
// prices its accesses and bills the declared cR otherwise.
func (f *Faulty) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	if err := f.fault(); err != nil {
		return 0, false, 0, err
	}
	if f.priced != nil {
		return f.priced.GradeOfCostErr(obj)
	}
	g, ok, err := gradeOfErr(f.src, obj)
	return g, ok, f.costs.CR, err
}
