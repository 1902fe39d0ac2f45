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
// The window slides, it does not grow: entries below the slowest live
// consumer's read position are trimmed (sorted cursors only move forward,
// so a trimmed entry can never be re-read by a live consumer). Peak window
// memory is therefore bounded by the spread between the fastest and
// slowest live consumer, not by the deepest scan — the difference that
// matters on straggler-heavy batches. Releasing a finished consumer (the
// func Attach returns) lets the window slide past it; a consumer attached
// after trimming re-fetches below-window positions straight from the
// source, counted as extra physical accesses.
//
// Consumers on different cores rarely touch the same memory. Each consumer
// reads through its own view of a list, which publishes the consumer's
// read position and counts its random probes on a cache line no other
// consumer writes, and keeps a read-ahead run: copies of up to readAhead
// window entries past its position. A read the run covers takes no lock;
// any other read takes the list's lock once, is served entry by entry
// exactly as an unshared window would serve it, and refills the run from
// entries already fetched, so the run never changes what is fetched or how
// large the window gets. Trimming walks the published positions only when
// the lock holder needs it: before the window's buffer grows, when an
// extension could raise the peak, and on attach and release.
//
// Random accesses are not shared: each query's probes pass through to the
// underlying list and are counted on its own view, since which objects a
// query probes depends on its own algorithm and aggregation.
//
// A SharedScan and its attached Sources may be used from concurrent
// goroutines; each attached Source itself still serves one query at a time,
// as always, and its release func must not run concurrently with its reads.
type SharedScan struct {
	shared []*sharedList
}

// readAhead is how many already-fetched window entries a consumer's locked
// read copies into its read-ahead run.
const readAhead = 64

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
	views := make([]*consumerView, len(ss.shared))
	lists := make([]ListSource, len(ss.shared))
	for i, l := range ss.shared {
		views[i] = l.attach()
		lists[i] = views[i]
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			for _, v := range views {
				v.l.detach(v)
			}
		})
	}
	return FromLists(lists, policy), release
}

// Stats returns the executor-level physical accounting: Sorted and PerList
// count the entries actually pulled from each underlying list (the deepest
// attached consumer's depth plus any below-window re-fetches), Random
// counts the pass-through random probes of every consumer ever attached,
// and MaxBuffered sums each list window's own peak length. Windows peak at
// different times, so the sum is an upper bound on — not necessarily equal
// to — the largest number of entries simultaneously held, the same
// summation semantics the sharded engine uses for per-worker buffers.
//
// Read Stats after the attached consumers finish: each counts its probes
// in a plain field that only it writes, so a Stats call racing a live
// consumer's probe is a data race. BatchQuery reads it once its workers
// have joined.
func (ss *SharedScan) Stats() Stats {
	st := Stats{PerList: make([]int64, len(ss.shared))}
	for i, l := range ss.shared {
		fetched, peak := l.counts()
		st.PerList[i] = fetched
		st.Sorted += fetched
		st.Random += l.probes()
		st.MaxBuffered += peak
	}
	return st
}

// PeakWindow returns the largest number of entries any single list's
// window held at once — the executor-memory bound the sliding window
// enforces.
func (ss *SharedScan) PeakWindow() int {
	peak := 0
	for _, l := range ss.shared {
		_, p := l.counts()
		peak = max(peak, p)
	}
	return peak
}

// sharedList adapts one underlying list into a sliding window every
// consumer reads through. The window is buf[head:]; trimming advances head
// instead of copying, and the dead prefix buf[:head] is compacted away only
// once it is as long as the live window, so each entry is copied O(1)
// times on average and the backing array stays within twice the peak
// window. Every field is guarded by mu.
type sharedList struct {
	mu        sync.Mutex
	src       ListSource
	n         int             // src.Len(), fixed: lists are immutable
	base      int             // absolute position of buf[head]; never moves back
	head      int             // buf[head:] holds absolute positions [base, base+len(buf)-head)
	buf       []model.Entry   // the window after a dead prefix of trimmed entries
	views     []*consumerView // every consumer ever attached, live or released
	spare     [][]model.Entry // read-ahead buffers released consumers handed back
	fetched   int64           // physical entries pulled (window fills + re-fetches)
	peak      int             // peak window length
	readLocks int64           // reads that took mu

	// slowest is the live consumer the last walk found below every other
	// and below the window's end, slowestAt its position then.
	slowest   *consumerView
	slowestAt int64
}

func (l *sharedList) attach() *consumerView {
	v := &consumerView{l: l, src: l.src, n: l.n, live: true}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Slide first so base is where the live consumers put it. The newcomer
	// publishes base: below it, its reads are re-fetches that cannot hold
	// the window back.
	l.slideLocked()
	v.next.Store(int64(l.base))
	l.views = append(l.views, v)
	return v
}

func (l *sharedList) detach(v *consumerView) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v.live = false
	if v.ra != nil {
		l.spare = append(l.spare, v.ra)
		v.ra, v.run = nil, nil
	}
	l.slideLocked()
}

// fillLocked returns the absolute position one past the window's end.
func (l *sharedList) fillLocked() int { return l.base + len(l.buf) - l.head }

// slideLocked moves base up to the slowest live consumer's published
// position (never back), dropping the entries below it by advancing head
// and compacting once the dead prefix is as long as the live window. When
// the consumer that held the minimum at the last walk is still live and
// still there, the minimum has not moved and neither can base, so the
// walk, which reads every live consumer's cache line, is skipped.
func (l *sharedList) slideLocked() {
	if v := l.slowest; v != nil && v.live && v.next.Load() == l.slowestAt {
		return
	}
	low := l.fillLocked()
	l.slowest = nil
	for _, v := range l.views {
		if !v.live {
			continue
		}
		if next := v.next.Load(); int(next) < low {
			low, l.slowest, l.slowestAt = int(next), v, next
		}
	}
	drop := low - l.base
	if drop <= 0 {
		return
	}
	l.head += drop
	l.base += drop
	if live := len(l.buf) - l.head; l.head >= live {
		l.buf = l.buf[:copy(l.buf, l.buf[l.head:])]
		l.head = 0
	}
}

// pushLocked appends e to the window. A full backing array is replaced by
// one of twice the live window, so growth is amortized and, since the
// window slides before it grows, the capacity stays within twice the peak
// window.
func (l *sharedList) pushLocked(e model.Entry) {
	if len(l.buf) == cap(l.buf) {
		live := l.buf[l.head:]
		grown := make([]model.Entry, len(live), max(2*len(live), 1))
		copy(grown, live)
		l.buf, l.head = grown, 0
	}
	l.buf = append(l.buf, e)
}

// read serves v's read of len(dst) entries from pos (all within the list)
// under one lock acquisition, entry by entry: a position below the window
// is re-fetched, one past its end extends it, and the consumer advances
// after each entry, so fetches and the peak are those of single reads. It
// then publishes v's position and, when the read ended at v's frontier,
// refills v's read-ahead run. A failed source read leaves the window as
// far as it successfully extended, so a retry resumes the fill without
// re-fetching delivered entries; the delivered prefix is valid.
func (l *sharedList) read(v *consumerView, pos int, dst []model.Entry) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readLocks++
	next := int(v.next.Load())
	v.run = nil
	for i := range dst {
		p := pos + i
		if p < l.base {
			//lint:lockheld rare: only a consumer attached after the window slid reads below it, and it stays one lock entry per read
			e, err := atErr(l.src, p)
			if err != nil {
				v.publish(next)
				return i, err
			}
			l.fetched++
			dst[i] = e
		} else {
			for fill := l.fillLocked(); p >= fill; fill++ {
				if len(l.buf) == cap(l.buf) || fill+1-l.base > l.peak {
					// base is a lower bound on the slowest consumer's
					// position: slide only when this extension could
					// raise the peak or must grow the buffer.
					v.publish(next)
					l.slideLocked()
				}
				//lint:lockheld single-flight: the window is extended exactly once, by whichever consumer reaches its end first
				e, err := atErr(l.src, fill)
				if err != nil {
					v.publish(next)
					return i, err
				}
				l.pushLocked(e)
				l.fetched++
				l.peak = max(l.peak, fill+1-l.base)
			}
			dst[i] = l.buf[l.head+p-l.base]
		}
		if v.live {
			next = max(next, p+1)
		}
	}
	v.publish(next)
	if v.live && next == pos+len(dst) {
		l.refillLocked(v, next)
	}
	return len(dst), nil
}

// refillLocked copies up to readAhead window entries from position from
// into v's read-ahead run. It only copies: the window keeps its entries
// and compaction may move them, so the run never aliases it.
func (l *sharedList) refillLocked(v *consumerView, from int) {
	if invariantsEnabled {
		for _, w := range l.views {
			if next := w.next.Load(); w.live && next < int64(l.base) {
				invariantViolated("window base %d above a live consumer's published position %d", l.base, next)
			}
		}
	}
	k := min(l.fillLocked()-from, readAhead)
	if k <= 0 {
		return
	}
	if v.ra == nil {
		if s := len(l.spare); s > 0 {
			v.ra, l.spare = l.spare[s-1], l.spare[:s-1]
		} else {
			v.ra = make([]model.Entry, readAhead)
		}
	}
	start := l.head + from - l.base
	v.run = v.ra[:copy(v.ra, l.buf[start:start+k])]
	v.runPos = from
}

func (l *sharedList) counts() (fetched int64, peak int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetched, l.peak
}

// probes sums the random probes of every consumer ever attached. The
// consumers count them without synchronization: call it only after they
// finish.
func (l *sharedList) probes() (random int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range l.views {
		random += v.random
	}
	return random
}

// consumerView is one consumer's handle on a sharedList; it is what the
// consumer's Source reads through. next and random are written only by
// the consumer; the list's lock holder reads next when it slides the
// window, and Stats reads random once the consumers have finished, so
// random needs no atomic (on amd64 even an atomic store is a locked
// exchange, paid on every probe). The read-ahead fields are the consumer's
// own: its locked reads refill them and its other reads consume them. The
// padding makes a view 128 bytes, an allocation size class, so no two
// views share a pair of cache lines.
type consumerView struct {
	next   atomic.Int64 // next unread position, published after every read
	random int64        // pass-through random probes
	l      *sharedList
	src    ListSource // l.src and l.n, copied so reads stay off l's cache lines
	n      int
	ra     []model.Entry // the read-ahead buffer, recycled through l.spare
	run    []model.Entry // the unread part of ra: positions [runPos, runPos+len(run))
	runPos int
	live   bool // guarded by l.mu
	_      [16]byte
}

func (v *consumerView) Len() int { return v.n }

// publish stores next as the consumer's position when it moved forward.
func (v *consumerView) publish(next int) {
	if int64(next) > v.next.Load() {
		v.next.Store(int64(next))
	}
}

// At implements ListSource through AtErr; a backend failure panics with
// the error.
func (v *consumerView) At(pos int) model.Entry { return must(v.AtErr(pos)) }

// AtN implements BatchList through AtNErr.
func (v *consumerView) AtN(pos int, dst []model.Entry) int { return must(v.AtNErr(pos, dst)) }

// GradeOf implements ListSource: the probe goes straight to the
// underlying list and is counted on the view.
func (v *consumerView) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	g, ok := v.src.GradeOf(obj)
	if ok {
		v.random++
	}
	return g, ok
}

// AccessCosts implements Backend when the underlying list declares costs,
// so charged accounting flows through the shared scan unchanged.
func (v *consumerView) AccessCosts() CostModel { return BackendCosts(v.src) }

// Fallible reports whether the underlying list can fail; the window itself
// cannot.
func (v *consumerView) Fallible() bool { return IsFallible(v.src) }

// AtErr implements FallibleList through the shared window; a position
// outside the list fails the way the underlying list does.
func (v *consumerView) AtErr(pos int) (model.Entry, error) {
	var e [1]model.Entry
	n, err := v.AtNErr(pos, e[:])
	if n == 0 && err == nil {
		return atErr(v.src, pos)
	}
	return e[0], err
}

// AtNErr implements FallibleBatchList: a read the read-ahead run covers is
// copied out of it without a lock; any other read takes the list's lock
// once.
func (v *consumerView) AtNErr(pos int, dst []model.Entry) (int, error) {
	n := min(v.n-pos, len(dst))
	if n <= 0 {
		return 0, nil
	}
	if pos == v.runPos && n <= len(v.run) {
		copy(dst, v.run[:n])
		v.run = v.run[n:]
		v.runPos += n
		v.next.Store(int64(v.runPos))
		return n, nil
	}
	return v.l.read(v, pos, dst[:n])
}

// GradeOfErr implements FallibleList; probes pass through individually
// and are counted on the view.
func (v *consumerView) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	g, ok, err := gradeOfErr(v.src, obj)
	if err == nil && ok {
		v.random++
	}
	return g, ok, err
}
