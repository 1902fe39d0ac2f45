package access

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func testDB(t *testing.T) *model.Database {
	t.Helper()
	b := model.NewBuilder(2)
	b.MustAdd(1, 0.9, 0.1)
	b.MustAdd(2, 0.5, 0.5)
	b.MustAdd(3, 0.2, 0.8)
	return b.MustBuild()
}

func TestSortedAccessWalksDescending(t *testing.T) {
	src := New(testDB(t), AllowAll)
	var prev model.Grade = 2
	for i := 0; i < 3; i++ {
		e, ok, _ := src.SortedNext(0)
		if !ok {
			t.Fatalf("list exhausted early at %d", i)
		}
		if e.Grade > prev {
			t.Fatalf("grades not descending: %v after %v", e.Grade, prev)
		}
		prev = e.Grade
	}
	if _, ok, _ := src.SortedNext(0); ok {
		t.Fatal("expected exhaustion after N accesses")
	}
	if !src.Exhausted(0) || src.Exhausted(1) {
		t.Fatal("exhaustion flags wrong")
	}
	st := src.Stats()
	if st.Sorted != 3 || st.PerList[0] != 3 || st.PerList[1] != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRandomAccessAndWildGuessTracking(t *testing.T) {
	src := New(testDB(t), AllowAll)
	// A random access before any sorted sighting is a wild guess.
	if g, ok, _ := src.Random(1, 2); !ok || g != 0.5 {
		t.Fatalf("Random(1,2) = %v,%v", g, ok)
	}
	// Seeing object 1 under sorted access makes later probes tame.
	if e, _, _ := src.SortedNext(0); e.Object != 1 {
		t.Fatalf("expected object 1 on top of list 0, got %d", e.Object)
	}
	if _, ok, _ := src.Random(1, 1); !ok {
		t.Fatal("Random(1,1) failed")
	}
	st := src.Stats()
	if st.Random != 2 || st.WildGuesses != 1 {
		t.Fatalf("stats = %+v, want 2 random / 1 wild guess", st)
	}
	if _, ok, _ := src.Random(0, model.ObjectID(99)); ok {
		t.Fatal("Random on absent object should report !ok")
	}
}

func TestPolicyViolationsPanic(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			v := recover()
			if v == nil {
				t.Errorf("%s: expected Violation panic", name)
				return
			}
			if _, ok := v.(Violation); !ok {
				t.Errorf("%s: panic value %v is not a Violation", name, v)
			}
		}()
		f()
	}
	noRandom := New(testDB(t), Policy{NoRandom: true})
	check("random under NoRandom", func() { noRandom.Random(0, 1) })
	zOnly := New(testDB(t), OnlySorted(0))
	check("sorted outside Z", func() { zOnly.SortedNext(1) })
	// Allowed directions still work.
	if _, ok, _ := zOnly.SortedNext(0); !ok {
		t.Error("sorted inside Z failed")
	}
	if _, ok, _ := zOnly.Random(1, 1); !ok {
		t.Error("random under Z policy failed")
	}
	if _, ok, _ := noRandom.SortedNext(1); !ok {
		t.Error("sorted under NoRandom failed")
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{CS: 1, CR: 7.9}
	if cm.H() != 7 {
		t.Errorf("H() = %d, want 7", cm.H())
	}
	if (CostModel{CS: 2, CR: 1}).H() != 1 {
		t.Error("H should clamp to 1")
	}
	st := Stats{Sorted: 3, Random: 2}
	if got := cm.Cost(st); got != 3+2*7.9 {
		t.Errorf("Cost = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("H with cS=0 should panic")
		}
	}()
	CostModel{CS: 0, CR: 1}.H()
}

func TestStatsHelpers(t *testing.T) {
	st := Stats{Sorted: 5, Random: 3, PerList: []int64{2, 5, 1}}
	if st.Depth() != 5 {
		t.Errorf("Depth = %d", st.Depth())
	}
	if st.Accesses() != 8 {
		t.Errorf("Accesses = %d", st.Accesses())
	}
}

func TestReset(t *testing.T) {
	src := New(testDB(t), AllowAll)
	src.SortedNext(0)
	src.Random(1, 1)
	src.ReportBuffer(3)
	src.CountBoundRecompute(3)
	src.Reset()
	st := src.Stats()
	if st.Sorted != 0 || st.Random != 0 || st.MaxBuffered != 0 || st.BoundRecomputes != 0 {
		t.Fatalf("Reset left stats %+v", st)
	}
	if e, ok, _ := src.SortedNext(0); !ok || e.Object != 1 {
		t.Fatal("Reset did not rewind cursors")
	}
}

func TestGradedSubsystemBatching(t *testing.T) {
	db := testDB(t)
	sub := NewGradedSubsystem("qbic", db.List(0), 2)
	src := FromLists([]ListSource{sub, db.List(1)}, AllowAll)
	src.SortedNext(0)
	if sub.BatchesSent() != 1 {
		t.Fatalf("after 1 item, batches = %d, want 1", sub.BatchesSent())
	}
	src.SortedNext(0) // still within batch 1
	if sub.BatchesSent() != 1 {
		t.Fatalf("after 2 items, batches = %d, want 1", sub.BatchesSent())
	}
	src.SortedNext(0)
	if sub.BatchesSent() != 2 {
		t.Fatalf("after 3 items, batches = %d, want 2", sub.BatchesSent())
	}
	if _, ok, _ := src.Random(0, 2); !ok {
		t.Fatal("probe failed")
	}
	if sub.ProbesServed() != 1 {
		t.Fatalf("probes = %d", sub.ProbesServed())
	}
}

func TestMiddlewareDerivesPolicy(t *testing.T) {
	db := testDB(t)
	engine := NewGradedSubsystem("engine", db.List(0), 10).DisableProbes()
	qbic := NewGradedSubsystem("qbic", db.List(1), 10)
	src := Middleware([]*GradedSubsystem{engine, qbic}, Policy{})
	if src.CanRandom(0) || src.CanRandom(1) {
		t.Fatal("middleware over a probe-less subsystem must forbid random access globally")
	}
	if !src.CanSorted(0) || !src.CanSorted(1) {
		t.Fatal("sorted access should remain allowed")
	}
}

func TestFromListsValidation(t *testing.T) {
	db := testDB(t)
	short := NewGradedSubsystem("short", db.List(0), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected length-mismatch panic")
		}
	}()
	b := model.NewBuilder(1)
	b.MustAdd(1, 0.5)
	FromLists([]ListSource{short, b.MustBuild().List(0)}, AllowAll)
}

// TestSourceSlotOverPartition checks Source.Slot over a 3-way partition of
// dense ids 5..14: each shard maps its own ids to distinct slots in
// [0, N_s), and every other shard's id, and every id outside the range,
// to none. Lists behind a wrapping layer, or of two shards, report no
// common layout, so their Source maps no id to a slot.
func TestSourceSlotOverPartition(t *testing.T) {
	b := model.NewBuilder(2)
	for id := model.ObjectID(5); id < 15; id++ {
		b.MustAdd(id, model.Grade(id)/20, model.Grade(15-id)/20)
	}
	shards, err := b.MustBuild().Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		src := New(sh, AllowAll)
		own := make(map[model.ObjectID]bool)
		for _, obj := range sh.Objects() {
			own[obj] = true
		}
		used := make(map[int]bool)
		for id := model.ObjectID(-3); id < 20; id++ {
			slot, ok := src.Slot(id)
			if ok != own[id] {
				t.Errorf("shard %d: Slot(%d) ok = %v, want %v", s, id, ok, own[id])
				continue
			}
			if !ok {
				continue
			}
			if slot < 0 || slot >= sh.N() || used[slot] {
				t.Errorf("shard %d: Slot(%d) = %d, want a fresh slot in [0, %d)", s, id, slot, sh.N())
			}
			used[slot] = true
		}
	}
	// A wrapping layer reports no layout, and two shards' lists report
	// different ones: their Sources map no id to a slot.
	for name, src := range map[string]*Source{
		"a Remote list":     FromLists([]ListSource{NewRemote(shards[1].List(0), UnitCosts, Latency{}), shards[1].List(1)}, AllowAll),
		"two shards' lists": FromLists([]ListSource{shards[1].List(0), shards[2].List(1)}, AllowAll),
	} {
		for _, obj := range shards[1].Objects() {
			if _, ok := src.Slot(obj); ok {
				t.Errorf("a Source over %s maps object %d to a slot", name, obj)
			}
		}
	}
}

// TestSourceSlotMatchesDivision checks Slot's divide-free lookup against
// plain division, for strides 1–64 over layouts of a few sizes — spans
// at most 2³² ids, which take the reciprocal, and wider ones, which
// divide — starting at 0, at small and negative ids and so that the last
// id is math.MaxInt64. The ids probed are the layout's first and last,
// its neighbours below the first and past the last, ids off the stride,
// math.MaxInt64, math.MinInt64 and random ids in and around the span.
func TestSourceSlotMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stride := uint64(1); stride <= 64; stride++ {
		for _, n := range []int{1, 7, 1000, int(uint64(1<<32) / stride), 1 << 30} {
			span := uint64(n) * stride // at most 2³⁶: no overflow here
			for _, first := range []int64{0, 5, -1000, math.MaxInt64 - int64(span-stride)} {
				s := &Source{n: n}
				s.setLayout(model.ObjectID(first), stride)
				if fast := s.recip != 0; fast != (stride > 1 && span <= 1<<32) {
					t.Fatalf("stride %d, n %d: reciprocal set %v", stride, n, fast)
				}
				want := func(obj model.ObjectID) (int, bool) {
					d := uint64(obj) - uint64(first)
					if d%stride != 0 || d/stride >= uint64(n) {
						return 0, false
					}
					return int(d / stride), true
				}
				id := func(d uint64) model.ObjectID { return model.ObjectID(uint64(first) + d) }
				probes := []model.ObjectID{math.MaxInt64, math.MinInt64, id(0), id(span - stride), id(span - stride + 1), id(span), id(span + stride), id(1), id(stride - 1), id(stride + 1), id(^uint64(0)), id(-stride)}
				for range 200 {
					probes = append(probes, id(rng.Uint64()%(2*span+2*stride)-stride), id(rng.Uint64()))
				}
				for _, obj := range probes {
					gotSlot, gotOK := s.Slot(obj)
					wantSlot, wantOK := want(obj)
					if gotSlot != wantSlot || gotOK != wantOK {
						t.Fatalf("stride %d, n %d, first %d: Slot(%d) = (%d, %v), division gives (%d, %v)", stride, n, first, obj, gotSlot, gotOK, wantSlot, wantOK)
					}
				}
			}
		}
	}
}
