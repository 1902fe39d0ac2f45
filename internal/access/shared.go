package access

import (
	"fmt"
	"sync"

	"repro/internal/model"
)

// SharedScan multiplexes many query Sources over one physical sorted scan
// per list. Each attached Source keeps its own cursors, policy and
// accounting — a query's Stats are identical to what an independent run
// would record — but the position a cursor reads is served from a shared
// per-list window that the underlying subsystem fills exactly once, no
// matter how many queries consume it. Q concurrent queries over the same
// lists therefore cost the subsystem m scans (to the deepest consumer's
// depth) instead of Q·m: the batch executor's whole point.
//
// The window is a sliding ring, not a growing buffer: every attached
// consumer's read position is tracked, and entries below the slowest live
// consumer are trimmed as soon as that consumer advances (sorted cursors
// only move forward, so a trimmed entry can never be re-read by a live
// consumer). Peak window memory is therefore bounded by the spread between
// the fastest and slowest live consumer, not by the deepest scan — the
// difference that matters on straggler-heavy batches. Releasing a finished
// consumer (the func Attach returns) lets the window slide past it; a
// consumer attached after trimming re-fetches below-window positions
// straight from the source, counted as extra physical accesses.
//
// Random accesses are not shared: each query's probes pass through (and are
// counted) individually, since which objects a query probes depends on its
// own algorithm and aggregation.
//
// A SharedScan and its attached Sources may be used from concurrent
// goroutines; each attached Source itself still serves one query at a time,
// as always.
type SharedScan struct {
	mu     sync.Mutex
	nextID int
	shared []*sharedList
}

// NewSharedScan wraps the given lists (all of equal length) in a shared
// scan.
func NewSharedScan(lists []ListSource) *SharedScan {
	if len(lists) == 0 {
		panic("access: need at least one list")
	}
	n := lists[0].Len()
	ss := &SharedScan{shared: make([]*sharedList, len(lists))}
	for i, l := range lists {
		if l.Len() != n {
			panic(fmt.Sprintf("access: list %d has %d entries, want %d", i, l.Len(), n))
		}
		ss.shared[i] = &sharedList{src: l, n: n, consumers: make(map[int]int)}
	}
	return ss
}

// Attach returns a fresh accounting Source over the shared lists under the
// given policy, plus a release func that marks the consumer finished. Every
// sorted access the Source performs is served from the shared windows; its
// Stats record the query's logical consumption exactly as an unshared
// Source would. Call release once the query is done — an unreleased
// consumer pins the windows at its last read position forever. Release is
// idempotent.
func (ss *SharedScan) Attach(policy Policy) (*Source, func()) {
	ss.mu.Lock()
	id := ss.nextID
	ss.nextID++
	ss.mu.Unlock()
	lists := make([]ListSource, len(ss.shared))
	for i, l := range ss.shared {
		l.attach(id)
		lists[i] = &consumerView{l: l, id: id}
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			for _, l := range ss.shared {
				l.detach(id)
			}
		})
	}
	return FromLists(lists, policy), release
}

// Stats returns the executor-level physical accounting: Sorted and PerList
// count the entries actually pulled from each underlying list (the deepest
// attached consumer's depth plus any below-window re-fetches), Random
// counts the pass-through random probes, and MaxBuffered sums each list
// window's own peak length. Windows peak at different times, so the sum is
// an upper bound on — not necessarily equal to — the largest number of
// entries simultaneously held, the same summation semantics the sharded
// engine uses for per-worker buffers.
func (ss *SharedScan) Stats() Stats {
	st := Stats{PerList: make([]int64, len(ss.shared))}
	for i, l := range ss.shared {
		fetched, random, peak := l.counts()
		st.PerList[i] = fetched
		st.Sorted += fetched
		st.Random += random
		st.MaxBuffered += peak
	}
	return st
}

// PeakWindow returns the largest number of entries any single list's
// window held at once — the executor-memory bound the sliding ring
// enforces.
func (ss *SharedScan) PeakWindow() int {
	peak := 0
	for _, l := range ss.shared {
		_, _, p := l.counts()
		if p > peak {
			peak = p
		}
	}
	return peak
}

// sharedList adapts one underlying list into a sliding window every
// consumer reads through.
type sharedList struct {
	mu        sync.Mutex
	src       ListSource
	n         int           // src.Len(), fixed: lists are immutable
	base      int           // absolute position of buf[0]
	buf       []model.Entry // the window: absolute positions [base, base+len(buf))
	consumers map[int]int   // live consumer id → next unread position
	fetched   int64         // physical entries pulled (window fills + re-fetches)
	random    int64         // pass-through random probes
	peak      int           // peak window length
}

func (l *sharedList) attach(id int) {
	l.mu.Lock()
	l.consumers[id] = 0
	l.mu.Unlock()
}

func (l *sharedList) detach(id int) {
	l.mu.Lock()
	delete(l.consumers, id)
	l.trimLocked()
	l.mu.Unlock()
}

// advanceLocked records that consumer id has consumed position pos.
func (l *sharedList) advanceLocked(id, pos int) {
	if next, ok := l.consumers[id]; ok && pos+1 > next {
		l.consumers[id] = pos + 1
	}
}

// trimLocked drops window entries below the slowest live consumer's next
// read. The entries are copied down in place so the backing array's
// capacity stays bounded by the peak window, not the scan depth.
func (l *sharedList) trimLocked() {
	if len(l.buf) == 0 {
		return
	}
	min := l.base + len(l.buf)
	for _, next := range l.consumers {
		if next < min {
			min = next
		}
	}
	drop := min - l.base
	if drop <= 0 {
		return
	}
	if drop > len(l.buf) {
		drop = len(l.buf)
	}
	n := copy(l.buf, l.buf[drop:])
	l.buf = l.buf[:n]
	l.base += drop
}

// atLocked serves consumer id's read of absolute position pos with l.mu
// held, extending the window as needed and sliding it past the slowest
// live consumer; batch reads loop it under a single lock acquisition, so
// the per-entry window advance/trim — and with it the fetched/peak
// accounting — is identical batch or not. A failed source read leaves the
// window exactly as far as it successfully extended, so a later retry
// resumes the fill without re-fetching delivered entries.
func (l *sharedList) atLocked(id, pos int) (model.Entry, error) {
	if pos < l.base {
		// The window already slid past pos (this consumer attached after
		// trimming): serve straight from the source, one extra physical
		// access.
		e, err := atErr(l.src, pos)
		if err != nil {
			return model.Entry{}, err
		}
		l.fetched++
		l.advanceLocked(id, pos)
		return e, nil
	}
	for pos >= l.base+len(l.buf) {
		e, err := atErr(l.src, l.base+len(l.buf))
		if err != nil {
			return model.Entry{}, err
		}
		l.buf = append(l.buf, e)
		l.fetched++
	}
	if len(l.buf) > l.peak {
		l.peak = len(l.buf)
	}
	e := l.buf[pos-l.base]
	l.advanceLocked(id, pos)
	l.trimLocked()
	return e, nil
}

func (l *sharedList) atErr(id, pos int) (model.Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.atLocked(id, pos)
}

// atNErr serves the batch under one lock acquisition; the delivered prefix
// is valid when an entry mid-batch fails.
func (l *sharedList) atNErr(id, pos int, dst []model.Entry) (int, error) {
	n := l.n - pos
	if n <= 0 {
		return 0, nil
	}
	if n > len(dst) {
		n = len(dst)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < n; i++ {
		e, err := l.atLocked(id, pos+i)
		if err != nil {
			return i, err
		}
		dst[i] = e
	}
	return n, nil
}

func (l *sharedList) gradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	g, ok, err := gradeOfErr(l.src, obj)
	if err != nil {
		return 0, false, err
	}
	if ok {
		l.mu.Lock()
		l.random++
		l.mu.Unlock()
	}
	return g, ok, nil
}

func (l *sharedList) counts() (fetched, random int64, peak int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetched, l.random, l.peak
}

// consumerView is one consumer's identity-carrying handle on a sharedList;
// it is what the consumer's Source reads through, so the window knows
// which cursor advanced.
type consumerView struct {
	l  *sharedList
	id int
}

func (v *consumerView) Len() int { return v.l.n }

// At implements ListSource through AtErr; a backend failure panics with
// the error.
func (v *consumerView) At(pos int) model.Entry { return must(v.AtErr(pos)) }

// AtN implements BatchList through AtNErr.
func (v *consumerView) AtN(pos int, dst []model.Entry) int { return must(v.AtNErr(pos, dst)) }

// GradeOf implements ListSource through GradeOfErr.
func (v *consumerView) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	return must2(v.GradeOfErr(obj))
}

// AccessCosts implements Backend when the underlying list declares costs,
// so charged accounting flows through the shared scan unchanged.
func (v *consumerView) AccessCosts() CostModel { return BackendCosts(v.l.src) }

// Fallible reports whether the underlying list can fail; the window itself
// cannot.
func (v *consumerView) Fallible() bool { return IsFallible(v.l.src) }

// AtErr implements FallibleList through the shared window.
func (v *consumerView) AtErr(pos int) (model.Entry, error) {
	return v.l.atErr(v.id, pos)
}

// AtNErr implements FallibleBatchList: the batch is served through the
// shared window under one lock acquisition.
func (v *consumerView) AtNErr(pos int, dst []model.Entry) (int, error) {
	return v.l.atNErr(v.id, pos, dst)
}

// GradeOfErr implements FallibleList; probes pass through individually.
func (v *consumerView) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	return v.l.gradeOfErr(obj)
}
