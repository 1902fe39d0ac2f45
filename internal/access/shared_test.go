package access

import (
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
