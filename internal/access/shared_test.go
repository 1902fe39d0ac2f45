package access

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
)

// TestSharedScanServesIdenticalEntries checks that Sources attached to one
// SharedScan observe exactly the entries an unshared Source observes, with
// identical per-query accounting, while the physical scan advances each
// list only once.
func TestSharedScanServesIdenticalEntries(t *testing.T) {
	db := testDB(t)
	lists := make([]ListSource, db.M())
	for i := range lists {
		lists[i] = db.List(i)
	}
	ss := NewSharedScan(lists)
	plain := New(db, AllowAll)
	shared, release := ss.Attach(AllowAll)
	defer release()
	for i := 0; i < db.M(); i++ {
		for {
			pe, pok, _ := plain.SortedNext(i)
			se, sok, _ := shared.SortedNext(i)
			if pok != sok || pe != se {
				t.Fatalf("list %d: shared (%v, %v) diverged from plain (%v, %v)", i, se, sok, pe, pok)
			}
			if !pok {
				break
			}
		}
	}
	if g, ok, _ := shared.Random(0, 2); !ok || g != 0.5 {
		t.Fatalf("random probe: got (%v, %v)", g, ok)
	}
	ps, sh := plain.Stats(), shared.Stats()
	if ps.Sorted != sh.Sorted || sh.Random != 1 {
		t.Fatalf("per-query accounting diverged: %+v vs %+v", sh, ps)
	}
	phys := ss.Stats()
	if phys.Sorted != int64(db.N()*db.M()) || phys.Random != 1 {
		t.Fatalf("physical accounting %+v, want %d sorted / 1 random", phys, db.N()*db.M())
	}
}

// TestSharedScanScansOncePerList attaches several consumers at different
// depths and checks the physical scan equals the deepest consumer's depth
// per list, not the sum. All consumers attach before any reads — the batch
// executor's protocol — so the sliding window never needs a re-fetch.
func TestSharedScanScansOncePerList(t *testing.T) {
	db := testDB(t)
	lists := make([]ListSource, db.M())
	for i := range lists {
		lists[i] = db.List(i)
	}
	ss := NewSharedScan(lists)
	depths := []int{1, 3, 2}
	srcs := make([]*Source, len(depths))
	for j := range depths {
		src, release := ss.Attach(AllowAll)
		defer release()
		srcs[j] = src
	}
	var totalLogical int64
	for j, d := range depths {
		src := srcs[j]
		for i := 0; i < db.M(); i++ {
			for r := 0; r < d; r++ {
				if _, ok, _ := src.SortedNext(i); !ok {
					t.Fatalf("unexpected exhaustion at depth %d", r)
				}
			}
		}
		totalLogical += src.Stats().Sorted
	}
	phys := ss.Stats()
	wantPhys := int64(3 * db.M()) // deepest consumer reached depth 3 on every list
	if phys.Sorted != wantPhys {
		t.Fatalf("physical sorted = %d, want %d (logical total %d)", phys.Sorted, wantPhys, totalLogical)
	}
	for i, d := range phys.PerList {
		if d != 3 {
			t.Fatalf("list %d physical depth %d, want 3", i, d)
		}
	}
	if totalLogical != int64((1+3+2)*db.M()) {
		t.Fatalf("logical total %d, want %d", totalLogical, (1+3+2)*db.M())
	}
}

// TestSharedScanConcurrentConsumers hammers one window from many goroutines
// (meaningful under -race) and checks everyone sees the same entries.
func TestSharedScanConcurrentConsumers(t *testing.T) {
	db := testDB(t)
	lists := make([]ListSource, db.M())
	for i := range lists {
		lists[i] = db.List(i)
	}
	ss := NewSharedScan(lists)
	want := New(db, AllowAll)
	var wantEntries []model.Entry
	for {
		e, ok, _ := want.SortedNext(0)
		if !ok {
			break
		}
		wantEntries = append(wantEntries, e)
	}
	const consumers = 8
	srcs := make([]*Source, consumers)
	releases := make([]func(), consumers)
	for g := 0; g < consumers; g++ {
		srcs[g], releases[g] = ss.Attach(Policy{NoRandom: true})
	}
	var wg sync.WaitGroup
	for g := 0; g < consumers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer releases[g]()
			src := srcs[g]
			for j := 0; ; j++ {
				e, ok, _ := src.SortedNext(0)
				if !ok {
					if j != len(wantEntries) {
						t.Errorf("consumer saw %d entries, want %d", j, len(wantEntries))
					}
					return
				}
				if e != wantEntries[j] {
					t.Errorf("entry %d = %v, want %v", j, e, wantEntries[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if phys := ss.Stats(); phys.Sorted != int64(len(wantEntries)) {
		t.Fatalf("physical sorted = %d, want %d", phys.Sorted, len(wantEntries))
	}
}

// TestSharedScanWindowSlides pins the sliding-window memory bound: a lone
// consumer's window never exceeds one entry, a straggler pins the window at
// its read position, and releasing the straggler lets the window trim to
// the live consumer.
func TestSharedScanWindowSlides(t *testing.T) {
	const n = 100
	b := model.NewBuilder(1)
	for i := 0; i < n; i++ {
		if err := b.Add(model.ObjectID(i+1), model.Grade(n-i)/model.Grade(n)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// A lone consumer: every entry is trimmed the moment it is consumed.
	ss := NewSharedScan([]ListSource{db.List(0)})
	src, release := ss.Attach(AllowAll)
	for i := 0; i < n; i++ {
		if _, ok, _ := src.SortedNext(0); !ok {
			t.Fatalf("unexpected exhaustion at %d", i)
		}
	}
	release()
	if peak := ss.PeakWindow(); peak > 1 {
		t.Fatalf("lone consumer peak window = %d, want <= 1", peak)
	}

	// A straggler at depth 10 pins the window while a fast consumer runs to
	// depth 60: the window must span exactly the consumer spread, and
	// releasing the straggler must let it collapse again.
	ss = NewSharedScan([]ListSource{db.List(0)})
	fast, fastRelease := ss.Attach(AllowAll)
	slow, slowRelease := ss.Attach(AllowAll)
	defer fastRelease()
	for i := 0; i < 10; i++ {
		slow.SortedNext(0)
	}
	for i := 0; i < 60; i++ {
		fast.SortedNext(0)
	}
	if peak := ss.PeakWindow(); peak != 50 {
		t.Fatalf("straggler-pinned peak window = %d, want 50 (spread of depths 60 and 10)", peak)
	}
	slowRelease()
	for i := 60; i < n; i++ {
		fast.SortedNext(0)
	}
	// After the straggler's release the window tracked only the fast
	// consumer, so the peak must not have grown past the pinned spread.
	if peak := ss.PeakWindow(); peak != 50 {
		t.Fatalf("post-release peak window = %d, want 50", peak)
	}
	if phys := ss.Stats(); phys.Sorted != n {
		t.Fatalf("physical sorted = %d, want %d", phys.Sorted, n)
	}
}

// TestSharedScanLateAttachRefetches checks that a consumer attached after
// the window slid past position 0 still sees correct entries, with the
// extra physical accesses counted.
func TestSharedScanLateAttachRefetches(t *testing.T) {
	db := testDB(t)
	ss := NewSharedScan([]ListSource{db.List(0)})
	first, release := ss.Attach(AllowAll)
	var want []model.Entry
	for {
		e, ok, _ := first.SortedNext(0)
		if !ok {
			break
		}
		want = append(want, e)
	}
	release() // window is now empty; base sits at the list's end
	late, lateRelease := ss.Attach(AllowAll)
	defer lateRelease()
	for j := 0; ; j++ {
		e, ok, _ := late.SortedNext(0)
		if !ok {
			if j != len(want) {
				t.Fatalf("late consumer saw %d entries, want %d", j, len(want))
			}
			break
		}
		if e != want[j] {
			t.Fatalf("late entry %d = %v, want %v", j, e, want[j])
		}
	}
	// The full list was fetched twice: once into the window, once as
	// below-window re-fetches.
	if phys := ss.Stats(); phys.Sorted != int64(2*len(want)) {
		t.Fatalf("physical sorted = %d, want %d", phys.Sorted, 2*len(want))
	}
}

// sharedScanDB builds an n-object database of m lists with pseudo-random
// grades.
func sharedScanDB(t *testing.T, n, m int) *model.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := model.NewBuilder(m)
	grades := make([]model.Grade, m)
	for obj := 0; obj < n; obj++ {
		for j := range grades {
			grades[j] = model.Grade(rng.Float64())
		}
		if err := b.Add(model.ObjectID(obj), grades...); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func sharedLists(db *model.Database) []ListSource {
	lists := make([]ListSource, db.M())
	for i := range lists {
		lists[i] = db.List(i)
	}
	return lists
}

// TestSharedScanConcurrentSortedAndRandom runs 8 consumers on 2 goroutines
// that mix sorted and random access, as TA does: each consumer reads every
// list to its own depth at its own pace and probes the other lists for
// each object it sees. Every entry and grade must match a plain Source,
// the executor's random count must be the consumers' sum (probes are
// counted without the window's lock), and the physical scan must be the
// deepest depth on each list.
func TestSharedScanConcurrentSortedAndRandom(t *testing.T) {
	const n, m, consumers, workers = 2000, 3, 8, 2
	db := sharedScanDB(t, n, m)
	plain := New(db, AllowAll)
	want := make([][]model.Entry, m)
	for i := range want {
		for {
			e, ok, _ := plain.SortedNext(i)
			if !ok {
				break
			}
			want[i] = append(want[i], e)
		}
	}
	depth := func(g, i int) int { return 200 + (g*7+i*3)%8*225 } // 200 … 1775
	pace := func(g int) int { return 1 + g%3 }                   // entries per turn

	ss := NewSharedScan(sharedLists(db))
	srcs := make([]*Source, consumers)
	releases := make([]func(), consumers)
	for g := range srcs {
		srcs[g], releases[g] = ss.Attach(AllowAll)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			read := make([][]int, consumers) // read[g][i]: entries consumer g has read from list i
			for g := w; g < consumers; g += workers {
				read[g] = make([]int, m)
				defer releases[g]()
			}
			for busy := true; busy; {
				busy = false
				for g := w; g < consumers; g += workers {
					for i := 0; i < m; i++ {
						for r := 0; r < pace(g) && read[g][i] < depth(g, i); r++ {
							busy = true
							pos := read[g][i]
							e, ok, err := srcs[g].SortedNext(i)
							if err != nil || !ok || e != want[i][pos] {
								t.Errorf("consumer %d list %d position %d: got (%v, %v, %v), want %v", g, i, pos, e, ok, err, want[i][pos])
								return
							}
							read[g][i]++
							for j := 0; j < m; j++ {
								if j == i {
									continue
								}
								grade, _ := db.List(j).GradeOf(e.Object)
								if got, ok, err := srcs[g].Random(j, e.Object); err != nil || !ok || got != grade {
									t.Errorf("consumer %d probe of object %d in list %d: got (%v, %v, %v), want %v", g, e.Object, j, got, ok, err, grade)
									return
								}
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var random int64
	for _, src := range srcs {
		random += src.Stats().Random
	}
	phys := ss.Stats()
	if phys.Random != random {
		t.Errorf("executor random = %d, consumers' sum = %d", phys.Random, random)
	}
	var deepest int64
	for i := 0; i < m; i++ {
		d := 0
		for g := 0; g < consumers; g++ {
			d = max(d, depth(g, i))
		}
		if phys.PerList[i] != int64(d) {
			t.Errorf("list %d physical depth %d, want the deepest consumer's %d", i, phys.PerList[i], d)
		}
		deepest += int64(d)
	}
	if phys.Sorted != deepest {
		t.Errorf("physical sorted = %d, want %d", phys.Sorted, deepest)
	}
}

// TestSharedScanWindowCapacity pins the window's memory: trimming only
// advances a head offset, so the backing array must stay within
// 2 × PeakWindow + 1 after every read — for a lone consumer over 10 000
// entries, and for a batch whose straggler pins the window while the rest
// run ahead and release.
func TestSharedScanWindowCapacity(t *testing.T) {
	const n = 10000
	db := sharedScanDB(t, n, 1)
	check := func(ss *SharedScan, what string, read int) {
		t.Helper()
		if c, p := cap(ss.shared[0].buf), ss.PeakWindow(); c > 2*p+1 {
			t.Fatalf("%s after %d reads: window capacity %d exceeds 2 × peak %d + 1", what, read, c, p)
		}
	}

	ss := NewSharedScan(sharedLists(db))
	src, release := ss.Attach(AllowAll)
	for r := 1; r <= n; r++ {
		if _, ok, _ := src.SortedNext(0); !ok {
			t.Fatalf("unexpected exhaustion at %d", r)
		}
		check(ss, "lone consumer", r)
	}
	release()

	// Seven consumers read 1–4 entries a turn; the straggler reads one
	// entry every fourth turn until the fast consumers finish, then
	// catches up alone.
	const batch = 8
	ss = NewSharedScan(sharedLists(db))
	srcs := make([]*Source, batch)
	releases := make([]func(), batch)
	for g := range srcs {
		srcs[g], releases[g] = ss.Attach(AllowAll)
	}
	reads := 0
	next := func(g int) bool {
		_, ok, _ := srcs[g].SortedNext(0)
		if ok {
			reads++
			check(ss, "straggler batch", reads)
		}
		return ok
	}
	done := make([]bool, batch)
	for turn, live := 0, batch-1; live > 0; turn++ {
		live = 0
		for g := 1; g < batch; g++ {
			if done[g] {
				continue
			}
			for r := 0; r <= g%4 && next(g); r++ {
			}
			if done[g] = srcs[g].Exhausted(0); done[g] {
				releases[g]()
			} else {
				live++
			}
		}
		if turn%4 == 0 {
			next(0)
		}
	}
	for next(0) {
	}
	releases[0]()
	if peak := ss.PeakWindow(); peak < n/2 {
		t.Fatalf("straggler batch peak window = %d; the straggler did not pin the window", peak)
	}
}

// TestSharedScanChurn has 2 goroutines each attach, read and release 6
// consumers in turn over 3 lists, so attaches, releases, window slides and
// read-ahead refills race with other consumers' reads. A consumer reads
// 1–5 entries at a time to a random depth on each list and probes another
// list after every entry. Every entry and grade must match a plain
// Source, the executor's random count must be the consumers' sum, and
// each list's physical count must reach the deepest depth read.
func TestSharedScanChurn(t *testing.T) {
	const n, m, workers, perWorker = 3000, 3, 2, 6
	db := sharedScanDB(t, n, m)
	want := make([][]model.Entry, m)
	for i := range want {
		want[i] = db.List(i).Entries()
	}
	ss := NewSharedScan(sharedLists(db))
	var (
		mu      sync.Mutex
		random  int64
		deepest [m]int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]model.Entry, 5)
			for c := 0; c < perWorker; c++ {
				src, release := ss.Attach(AllowAll)
				var depth, read [m]int
				for i := range depth {
					depth[i] = 1 + rng.Intn(n)
				}
				for busy := true; busy; {
					busy = false
					for i := 0; i < m; i++ {
						if read[i] == depth[i] {
							continue
						}
						busy = true
						got, err := src.SortedNextN(i, buf[:min(1+rng.Intn(5), depth[i]-read[i])])
						if err != nil {
							t.Errorf("worker %d consumer %d list %d: %v", w, c, i, err)
							return
						}
						for _, e := range buf[:got] {
							if e != want[i][read[i]] {
								t.Errorf("worker %d consumer %d list %d position %d: got %v, want %v", w, c, i, read[i], e, want[i][read[i]])
								return
							}
							read[i]++
							j := (i + 1) % m
							grade, _ := db.List(j).GradeOf(e.Object)
							if g, ok, err := src.Random(j, e.Object); err != nil || !ok || g != grade {
								t.Errorf("worker %d consumer %d probe of %d in list %d: got (%v, %v, %v), want %v", w, c, e.Object, j, g, ok, err, grade)
								return
							}
						}
					}
				}
				release()
				mu.Lock()
				random += src.Stats().Random
				for i := range deepest {
					deepest[i] = max(deepest[i], depth[i])
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	phys := ss.Stats()
	if phys.Random != random {
		t.Errorf("executor random = %d, consumers' sum = %d", phys.Random, random)
	}
	for i, d := range deepest {
		if phys.PerList[i] < int64(d) {
			t.Errorf("list %d physical count %d is below the deepest depth read, %d", i, phys.PerList[i], d)
		}
	}
}

// TestSharedScanFollowerReadsAhead pins what the read-ahead saves: after
// a leader has scanned 4 000 entries, a follower reading them one
// SortedNext at a time takes the window's lock at most ⌈4 000/64⌉ = 63
// times, since each locked read copies up to 64 more fetched entries into
// its run. Without the run it would take the lock on every read. Neither
// the physical count nor the peak window may change.
func TestSharedScanFollowerReadsAhead(t *testing.T) {
	const n, depth = 5000, 4000
	db := sharedScanDB(t, n, 1)
	ss := NewSharedScan(sharedLists(db))
	leader, leaderRelease := ss.Attach(AllowAll)
	follower, followerRelease := ss.Attach(AllowAll)
	defer leaderRelease()
	defer followerRelease()
	for r := 0; r < depth; r++ {
		if _, ok, _ := leader.SortedNext(0); !ok {
			t.Fatalf("leader exhausted at %d", r)
		}
	}
	l := ss.shared[0]
	before := l.readLocks
	for r := 0; r < depth; r++ {
		if e, ok, _ := follower.SortedNext(0); !ok || e != db.List(0).At(r) {
			t.Fatalf("follower read %d: got (%v, %v), want %v", r, e, ok, db.List(0).At(r))
		}
	}
	if locks := l.readLocks - before; locks > (depth+readAhead-1)/readAhead {
		t.Fatalf("follower took the window lock %d times for %d reads, want at most %d", locks, depth, (depth+readAhead-1)/readAhead)
	}
	if phys := ss.Stats(); phys.Sorted != depth || ss.PeakWindow() != depth {
		t.Fatalf("physical sorted %d and peak window %d, want %d and %d", phys.Sorted, ss.PeakWindow(), depth, depth)
	}
}
