package access

import (
	"container/list"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
)

// refLRU is the reference recency model the cache's own structures are
// checked against: a bounded container/list LRU of keys.
type refLRU[K comparable] struct {
	cap   int
	order *list.List // front = most recently used; values: K
	at    map[K]*list.Element
}

func newRefLRU[K comparable](capacity int) *refLRU[K] {
	return &refLRU[K]{cap: capacity, order: list.New(), at: map[K]*list.Element{}}
}

// use touches key and reports whether it was resident. A newcomer goes to
// the front; when that overflows the bound, the least recently used key
// is dropped and returned.
func (r *refLRU[K]) use(key K) (resident bool, dropped K, didDrop bool) {
	if el, ok := r.at[key]; ok {
		r.order.MoveToFront(el)
		return true, dropped, false
	}
	r.at[key] = r.order.PushFront(key)
	if r.order.Len() > r.cap {
		back := r.order.Back()
		r.order.Remove(back)
		dropped = back.Value.(K)
		delete(r.at, dropped)
		return false, dropped, true
	}
	return false, dropped, false
}

// keys returns the model's keys, most recently used first.
func (r *refLRU[K]) keys() []K {
	out := make([]K, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(K))
	}
	return out
}

type memoModelKey struct {
	list int32
	obj  model.ObjectID
}

// checkMemoTable checks the memo's structure against the model's recency
// order: the chain from the sentinel lists exactly the model's keys in the
// same order with consistent back links, and the index holds each item
// once, reachable from its home slot.
func checkMemoTable(t *testing.T, m *memoTable, want []memoModelKey) {
	t.Helper()
	if m.len() != len(want) {
		t.Fatalf("memo holds %d items, model %d", m.len(), len(want))
	}
	e := m.items[0].next
	for i, k := range want {
		it := m.items[e]
		if it.list != k.list || it.obj != k.obj {
			t.Fatalf("memo recency position %d holds (%d, %d), model (%d, %d)", i, it.list, it.obj, k.list, k.obj)
		}
		if m.items[it.next].prev != e {
			t.Fatalf("memo chain back link broken after item %d", e)
		}
		if got := m.find(k.list, k.obj); got != e {
			t.Fatalf("memo index finds (%d, %d) at item %d, chain has it at %d", k.list, k.obj, got, e)
		}
		e = it.next
	}
	if e != 0 {
		t.Fatalf("memo chain continues past the model's %d keys", len(want))
	}
	used := 0
	for _, f := range m.index {
		if f != 0 {
			used++
		}
	}
	if used != m.len() || 2*used > len(m.index) {
		t.Fatalf("memo index holds %d items in %d slots, want %d at most half full", used, len(m.index), m.len())
	}
}

// checkHotChain checks the hot tier's chain lists exactly the model's page
// keys in the same order.
func checkHotChain(t *testing.T, c *Cache, want []pageKey) {
	t.Helper()
	pg := c.hot.next
	for i, k := range want {
		if pg == &c.hot || pg.key != k {
			t.Fatalf("hot chain position %d diverges from the model's page %v", i, k)
		}
		pg = pg.next
	}
	if pg != &c.hot {
		t.Fatalf("hot chain continues past the model's %d pages", len(want))
	}
}

// TestCacheRecencyMatchesReferenceLRU drives flat caches (ColdPages -1, so
// the hot chain is the whole page store) through their public views with
// random sorted and random accesses over 2–3 lists, and predicts every
// call's hit or miss with a container/list model of each recency order,
// read off the cost the call returns. The capacities run from 1 to 64; at
// 2, 3 and 7 the memo's index has 4, 8 and 16 slots, so probe runs wrap
// past its end and backward-shift deletion moves items across it.
func TestCacheRecencyMatchesReferenceLRU(t *testing.T) {
	const n, pageSize, steps = 300, 2, 4000
	cm := CostModel{CS: 1, CR: 2}
	for ci, capacity := range []int{1, 2, 3, 7, 64} {
		m := 2 + ci%2
		db := sharedScanDB(t, n, m)
		c := NewCache(CacheConfig{PageSize: pageSize, Pages: capacity, ColdPages: -1, Memo: capacity})
		views := make([]CostedList, m)
		for i := range views {
			views[i] = c.Wrap(i, NewRemote(db.List(i), cm, Latency{})).(CostedList)
		}
		pages := newRefLRU[pageKey](capacity)
		filled := map[pageKey][]bool{}
		memo := newRefLRU[memoModelKey](capacity)
		var want CacheStats
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		// Draws favour a working set about twice the capacity, so hits,
		// misses and evictions all occur at every size.
		draw := func(limit int) int {
			if rng.Intn(10) < 7 {
				return rng.Intn(min(2*capacity*pageSize, limit))
			}
			return rng.Intn(limit)
		}
		for step := 0; step < steps; step++ {
			li := rng.Intn(m)
			if rng.Intn(2) == 0 {
				pos := draw(n)
				key := pageKey{list: li, page: pos / pageSize}
				resident, dropped, didDrop := pages.use(key)
				if didDrop {
					delete(filled, dropped)
					want.HotEvictions++
					want.Evictions++
				}
				if !resident {
					filled[key] = make([]bool, pageSize)
				}
				hit := filled[key][pos%pageSize]
				filled[key][pos%pageSize] = true
				e, cost := views[li].AtCost(pos)
				if e != db.List(li).At(pos) {
					t.Fatalf("capacity %d step %d: list %d pos %d served %v, want %v", capacity, step, li, pos, e, db.List(li).At(pos))
				}
				if hit != (cost == 0) {
					t.Fatalf("capacity %d step %d: list %d pos %d cost %g, model predicts hit=%v", capacity, step, li, pos, cost, hit)
				}
				if hit {
					want.Hits++
				} else {
					want.Misses++
				}
			} else {
				// Ids from n on are absent; the memo keeps their absence too.
				obj := model.ObjectID(1 + draw(n+n/10))
				resident, _, _ := memo.use(memoModelKey{list: int32(li), obj: obj})
				g, ok, cost := views[li].GradeOfCost(obj)
				if wg, wok := db.List(li).GradeOf(obj); g != wg || ok != wok {
					t.Fatalf("capacity %d step %d: probe (%d, %d) = (%v, %v), want (%v, %v)", capacity, step, li, obj, g, ok, wg, wok)
				}
				if resident != (cost == 0) {
					t.Fatalf("capacity %d step %d: probe (%d, %d) cost %g, model predicts hit=%v", capacity, step, li, obj, cost, resident)
				}
				if resident {
					want.ProbeHits++
				} else {
					want.ProbeMisses++
				}
			}
			checkMemoTable(t, &c.memo, memo.keys())
			checkHotChain(t, c, pages.keys())
		}
		got := c.Stats()
		got.ChargedSaved = 0
		if got != want {
			t.Fatalf("capacity %d: stats %+v, model %+v", capacity, got, want)
		}
		if want.Evictions == 0 || want.Hits == 0 || want.ProbeHits == 0 || memo.order.Len() != capacity {
			t.Fatalf("capacity %d: the run exercised too little: %+v", capacity, want)
		}
		checkTierConsistency(t, c)
	}
}

// constructionBytes returns the fewest heap bytes NewCache(cfg) allocated
// over three constructions.
func constructionBytes(cfg CacheConfig) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		c := NewCache(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCacheShortListPageSizedByList pins that a page is no larger than its
// list: with PageSize 2^16 the first read of a 64-entry list allocates a
// page of 64 slots (1 114 416 bytes were a full-size page), the best of
// three fresh caches staying under 4 KiB, and the page then serves the
// whole list.
func TestCacheShortListPageSizedByList(t *testing.T) {
	const n = 64
	db := sharedScanDB(t, n, 1)
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		view := NewCache(CacheConfig{PageSize: 1 << 16}).Wrap(0, db.List(0)).(CostedList)
		runtime.ReadMemStats(&before)
		view.AtCost(0)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		for pos := 0; pos < n; pos++ {
			if e, _ := view.AtCost(pos); e != db.List(0).At(pos) {
				t.Fatalf("position %d served %+v, list holds %+v", pos, e, db.List(0).At(pos))
			}
		}
	}
	if best >= 4<<10 {
		t.Fatalf("the first read of a %d-entry list allocated %d bytes", n, best)
	}
}

// TestCacheMemoGrowsLazily pins that the memo bound is a bound, not a size:
// a cache whose memo may hold math.MaxInt probes costs no more to build
// than the default one, answers every probe, and serves the second pass
// from the memo.
func TestCacheMemoGrowsLazily(t *testing.T) {
	huge := CacheConfig{Memo: math.MaxInt}
	if got, def := constructionBytes(huge), constructionBytes(CacheConfig{}); got > def {
		t.Fatalf("building a cache with memo bound %d allocated %d bytes, the default cache %d", huge.Memo, got, def)
	}
	db := sharedScanDB(t, 500, 3)
	cache, lists, _ := cachedStack(db, huge, UnitCosts)
	for pass := 0; pass < 2; pass++ {
		src := FromLists(lists, AllowAll)
		for i := 0; i < db.M(); i++ {
			for _, obj := range db.Objects() {
				want, _ := db.List(i).GradeOf(obj)
				if g, ok, _ := src.Random(i, obj); !ok || g != want {
					t.Fatalf("pass %d probe (%d, %d) = (%v, %v), want (%v, true)", pass, i, obj, g, ok, want)
				}
			}
		}
	}
	probes := int64(db.N() * db.M())
	if st := cache.Stats(); st.ProbeMisses != probes || st.ProbeHits != probes {
		t.Fatalf("stats %+v, want %d probe misses then %d hits", st, probes, probes)
	}
}

// TestCachePageBoundsAreBounds pins that the page store's bounds are
// bounds, not sizes: a cache whose tiers may hold 2^16 hot and 2^18 cold
// pages builds in its admission sketch's bytes alone, and a flat one at
// that bound, which has no sketch, in under 1 KB.
func TestCachePageBoundsAreBounds(t *testing.T) {
	cfg := CacheConfig{Pages: 1 << 16}
	r := cfg.withDefaults()
	s := newAdmitSketch(r.sketchPages(), r.PageSize)
	sketch := uint64(len(s.counters) + 8*len(s.door))
	if got := constructionBytes(cfg); got > sketch+1<<10 {
		t.Fatalf("building a cache with bounds %+v allocated %d bytes, its sketch %d", cfg, got, sketch)
	}
	flat := CacheConfig{Pages: 1 << 16, ColdPages: -1}
	if got := constructionBytes(flat); got >= 1<<10 {
		t.Fatalf("building a flat cache with bounds %+v allocated %d bytes", flat, got)
	}
}

// TestCacheSizingCaps pins the caps on what NewCache sizes up front, on
// the sizing it resolves rather than on a built cache: at Pages, ColdPages
// and PageSize of 2^40, 2^60 and math.MaxInt a page covers at most
// maxPageEntries positions, the cold tier is at least as large as the hot
// one up to 2^61 pages (the default 4 × Pages must not wrap around), and
// the sketch is sized for at most maxSketchPages pages. At both caps the
// sketch's aging period stays positive, and below them the sizing is the
// configured one.
func TestCacheSizingCaps(t *testing.T) {
	for _, v := range []int{1 << 40, 1 << 60, math.MaxInt} {
		for _, cfg := range []CacheConfig{{Pages: v}, {ColdPages: v}, {PageSize: v}, {PageSize: v, Pages: v, ColdPages: v}} {
			r := cfg.withDefaults()
			p := r.sketchPages()
			if r.PageSize < 1 || r.PageSize > maxPageEntries || r.Pages < 1 || r.ColdPages < min(r.Pages, 1<<61) || p < 1 || p > maxSketchPages {
				t.Fatalf("%+v resolves to %+v with a sketch for %d pages", cfg, r, p)
			}
		}
	}
	if s := newAdmitSketch(maxSketchPages, maxPageEntries); s.sample <= 0 || len(s.counters) != 4*maxSketchPages {
		t.Fatalf("a sketch at both caps has %d counter bytes and aging period %d", len(s.counters), s.sample)
	}
	r := CacheConfig{}.withDefaults()
	if r.PageSize != 64 || r.Pages != 256 || r.ColdPages != 1024 || r.sketchPages() != 1280 {
		t.Fatalf("the default configuration resolves to %+v with a sketch for %d pages", r, r.sketchPages())
	}
}

// TestCacheWarmMissesAllocateNothing pins the allocation-free steady state:
// once a cache is warm and full, a memo miss that evicts a probe and a
// page miss that drops a page (flat, through an admission reject, or by
// displacing a cold resident) allocate nothing.
func TestCacheWarmMissesAllocateNothing(t *testing.T) {
	const n = 64
	db := sharedScanDB(t, n, 1)

	memoView := NewCache(CacheConfig{Memo: 4}).Wrap(0, db.List(0)).(CostedList)
	obj := 0
	probe := func() {
		// A cycle of 10 objects through a 4-probe memo misses every time.
		obj = obj%10 + 1
		if _, _, cost := memoView.GradeOfCost(model.ObjectID(obj)); cost == 0 {
			t.Fatalf("probe of object %d hit; the cycle should miss", obj)
		}
	}
	for i := 0; i < 20; i++ {
		probe()
	}
	if a := testing.AllocsPerRun(200, probe); a != 0 {
		t.Fatalf("a warm memo miss allocated %v times per probe", a)
	}

	for _, cfg := range []CacheConfig{
		{PageSize: 2, Pages: 2, ColdPages: -1},
		{PageSize: 2, Pages: 2, ColdPages: 2},
	} {
		c := NewCache(cfg)
		view := c.Wrap(0, db.List(0)).(CostedList)
		pos := 0
		read := func() {
			// One entry from each of 8 pages in turn: every read is a
			// full page miss that pushes a page out.
			pos = (pos + cfg.PageSize) % (8 * cfg.PageSize)
			if _, cost := view.AtCost(pos); cost == 0 {
				t.Fatalf("cfg %+v: read of pos %d hit; the cycle should miss", cfg, pos)
			}
		}
		for i := 0; i < 32; i++ {
			read()
		}
		if a := testing.AllocsPerRun(200, read); a != 0 {
			t.Fatalf("cfg %+v: a warm page miss allocated %v times per read", cfg, a)
		}
		if st := c.Stats(); st.Evictions == 0 {
			t.Fatalf("cfg %+v: no page left the cache: %+v", cfg, st)
		}
		checkTierConsistency(t, c)
	}
}
