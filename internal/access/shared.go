package access

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// The window slides, it does not grow: every attached consumer's read
// position is tracked, and entries below the slowest live consumer are
// trimmed as soon as that consumer advances (sorted cursors only move
// forward, so a trimmed entry can never be re-read by a live consumer).
// Peak window memory is therefore bounded by the spread between the
// fastest and slowest live consumer, not by the deepest scan — the
// difference that matters on straggler-heavy batches. Releasing a finished
// consumer (the func Attach returns) lets the window slide past it; a
// consumer attached after trimming re-fetches below-window positions
// straight from the source, counted as extra physical accesses.
//
// Random accesses are not shared: each query's probes pass through (and are
// counted) individually, since which objects a query probes depends on its
// own algorithm and aggregation. A probe takes no lock: the shared count
// is atomic.
//
// A SharedScan and its attached Sources may be used from concurrent
// goroutines; each attached Source itself still serves one query at a time,
// as always.
type SharedScan struct {
	mu     sync.Mutex
	slots  int   // consumer slots handed out so far
	free   []int // released slots, reused by the next Attach
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
		ss.shared[i] = &sharedList{src: l, n: n}
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
	id := ss.slots
	if k := len(ss.free); k > 0 {
		id, ss.free = ss.free[k-1], ss.free[:k-1]
	} else {
		ss.slots++
	}
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
			ss.mu.Lock()
			ss.free = append(ss.free, id)
			ss.mu.Unlock()
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
// consumer reads through. The window is buf[head:]; trimming advances head
// instead of copying, and the dead prefix buf[:head] is compacted away only
// once it is as long as the live window, so each entry is copied O(1)
// times on average and the backing array stays within twice the peak
// window.
type sharedList struct {
	mu      sync.Mutex
	src     ListSource
	n       int           // src.Len(), fixed: lists are immutable
	base    int           // absolute position of buf[head]
	head    int           // buf[head:] holds absolute positions [base, base+len(buf)-head)
	buf     []model.Entry // the window after a dead prefix of trimmed entries
	next    []int         // consumer slot → next unread position; -1 once released
	fetched int64         // physical entries pulled (window fills + re-fetches)
	peak    int           // peak window length
	random  atomic.Int64  // pass-through random probes, counted without mu
}

func (l *sharedList) attach(id int) {
	l.mu.Lock()
	for len(l.next) <= id {
		l.next = append(l.next, -1)
	}
	l.next[id] = 0
	l.mu.Unlock()
}

func (l *sharedList) detach(id int) {
	l.mu.Lock()
	l.next[id] = -1
	l.trimLocked()
	l.mu.Unlock()
}

// advanceLocked records that consumer id has consumed position pos and
// slides the window when id was the consumer holding its low edge. A
// consumer reading ahead of the low edge cannot raise the slowest
// consumer's position, so it skips the walk over the slots.
func (l *sharedList) advanceLocked(id, pos int) {
	next := l.next[id]
	if next < 0 || pos+1 <= next {
		return
	}
	l.next[id] = pos + 1
	if next <= l.base {
		l.trimLocked()
	}
}

// trimLocked drops window entries below the slowest live consumer's next
// read by advancing head, compacting once the dead prefix is as long as
// the live window.
func (l *sharedList) trimLocked() {
	live := len(l.buf) - l.head
	if live == 0 {
		return
	}
	low := l.base + live
	for _, next := range l.next {
		if next >= 0 && next < low {
			low = next
		}
	}
	drop := low - l.base
	if drop <= 0 {
		return
	}
	l.head += drop
	l.base += drop
	if l.head >= live-drop {
		l.buf = l.buf[:copy(l.buf, l.buf[l.head:])]
		l.head = 0
	}
}

// pushLocked appends e to the window. A full backing array is replaced by
// one of twice the live window, so growth is amortized and the capacity
// stays within twice the peak window.
func (l *sharedList) pushLocked(e model.Entry) {
	if len(l.buf) == cap(l.buf) {
		live := l.buf[l.head:]
		grown := make([]model.Entry, len(live), max(2*len(live), 1))
		copy(grown, live)
		l.buf, l.head = grown, 0
	}
	l.buf = append(l.buf, e)
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
		l.advanceLocked(id, pos) // pos < base: cannot slide the window
		return e, nil
	}
	for end := l.base + len(l.buf) - l.head; pos >= end; end++ {
		e, err := atErr(l.src, end)
		if err != nil {
			return model.Entry{}, err
		}
		l.pushLocked(e)
		l.fetched++
	}
	if live := len(l.buf) - l.head; live > l.peak {
		l.peak = live
	}
	e := l.buf[l.head+pos-l.base]
	l.advanceLocked(id, pos)
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
		l.random.Add(1)
	}
	return g, ok, nil
}

func (l *sharedList) counts() (fetched, random int64, peak int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetched, l.random.Load(), l.peak
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
