package access

import (
	"testing"

	"repro/internal/model"
)

// cachedStack wraps db's lists as graded subsystems behind one shared
// Cache and returns the stack plus the physical-truth subsystems.
func cachedStack(db *model.Database, cfg CacheConfig, cm CostModel) (*Cache, []ListSource, []*GradedSubsystem) {
	c := NewCache(cfg)
	subs := make([]*GradedSubsystem, db.M())
	lists := make([]ListSource, db.M())
	for i := 0; i < db.M(); i++ {
		subs[i] = NewGradedSubsystem("sub", db.List(i), 1).WithCosts(cm)
		lists[i] = c.Wrap(i, subs[i])
	}
	return c, lists, subs
}

// TestCacheServesIdenticalEntries checks the correctness pin: a Source over
// the cached stack observes exactly what an uncached Source observes —
// every entry, every probe — while the second pass is served from cache.
func TestCacheServesIdenticalEntries(t *testing.T) {
	db := testDB(t)
	cache, lists, subs := cachedStack(db, CacheConfig{PageSize: 2, Pages: 8}, UnitCosts)
	for pass := 0; pass < 2; pass++ {
		plain := New(db, AllowAll)
		cached := FromLists(lists, AllowAll)
		for i := 0; i < db.M(); i++ {
			for {
				pe, pok, _ := plain.SortedNext(i)
				ce, cok, _ := cached.SortedNext(i)
				if pok != cok || pe != ce {
					t.Fatalf("pass %d list %d: cached (%v, %v) diverged from plain (%v, %v)", pass, i, ce, cok, pe, pok)
				}
				if !pok {
					break
				}
			}
			for _, obj := range db.Objects() {
				pg, pok, _ := plain.Random(i, obj)
				cg, cok, _ := cached.Random(i, obj)
				if pok != cok || pg != cg {
					t.Fatalf("pass %d probe (%d, %d): cached (%v, %v) vs plain (%v, %v)", pass, i, obj, cg, cok, pg, pok)
				}
			}
		}
		ps, cs := plain.Stats(), cached.Stats()
		if ps.Sorted != cs.Sorted || ps.Random != cs.Random {
			t.Fatalf("pass %d: logical accounting diverged: %+v vs %+v", pass, cs, ps)
		}
	}
	// The cache held every page (8 pages of 2 cover the 5-object lists),
	// so the second pass cost the subsystems nothing.
	for i, sub := range subs {
		if sub.ItemsSent() != db.N() {
			t.Fatalf("list %d: subsystem shipped %d items, want %d (second pass must hit)", i, sub.ItemsSent(), db.N())
		}
		wantProbes := db.N() // each object probed once per pass; memo absorbs pass 2
		if sub.ProbesServed() != wantProbes {
			t.Fatalf("list %d: subsystem served %d probes, want %d", i, sub.ProbesServed(), wantProbes)
		}
	}
	st := cache.Stats()
	if st.Misses != int64(db.N()*db.M()) || st.Hits != int64(db.N()*db.M()) {
		t.Fatalf("cache stats %+v, want %d misses and hits", st, db.N()*db.M())
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", st.HitRate())
	}
}

// TestCacheNeverExceedsUncachedPhysical is the accounting pin from the
// issue: across workloads and tiny cache bounds (evictions included), the
// physical accesses behind the cache never exceed what the same logical
// reads cost uncached.
func TestCacheNeverExceedsUncachedPhysical(t *testing.T) {
	db := testDB(t)
	for _, cfg := range []CacheConfig{
		{PageSize: 1, Pages: 1, Memo: 1}, // pathological: constant churn
		{PageSize: 2, Pages: 2, Memo: 2},
		{PageSize: 64, Pages: 256, Memo: 4096},
		// Cross-tier shapes: tight hot over tight cold (admission under
		// pressure), cold hits priced at half, and the flat single-LRU
		// cache with the cold tier disabled.
		{PageSize: 1, Pages: 1, ColdPages: 2, ColdHitCost: 0.5, Memo: 1},
		{PageSize: 2, Pages: 1, ColdPages: 1, Memo: 2},
		{PageSize: 1, Pages: 1, ColdPages: -1, Memo: 1}, // flat, one page
	} {
		cache, lists, subs := cachedStack(db, cfg, UnitCosts)
		uncachedPhysical := 0
		for pass := 0; pass < 3; pass++ {
			cached := FromLists(lists, AllowAll)
			for i := 0; i < db.M(); i++ {
				for {
					if _, ok, _ := cached.SortedNext(i); !ok {
						break
					}
					uncachedPhysical++
				}
				for _, obj := range db.Objects() {
					cached.Random(i, obj)
					uncachedPhysical++
				}
			}
		}
		st := cache.Stats()
		passedThrough := int(st.Misses + st.ProbeMisses)
		if passedThrough > uncachedPhysical {
			t.Fatalf("cfg %+v: cache passed %d accesses to the backends, uncached reads would pass %d", cfg, passedThrough, uncachedPhysical)
		}
		// The subsystems' own shipping caches can only absorb further
		// accesses, never add any.
		physical := 0
		for _, sub := range subs {
			physical += sub.ItemsSent() + sub.ProbesServed()
		}
		if physical > passedThrough {
			t.Fatalf("cfg %+v: subsystems served %d accesses, cache passed through only %d", cfg, physical, passedThrough)
		}
		if cfg.Pages == 1 && st.Evictions == 0 {
			t.Fatalf("cfg %+v: expected evictions under a one-page bound", cfg)
		}
	}
}

// TestCacheChargesMissesOnly checks the CostedList integration: a Source
// over the cached stack charges the backend cost model on misses and
// nothing on hits, and the cache reports the absorbed cost.
func TestCacheChargesMissesOnly(t *testing.T) {
	db := testDB(t)
	cm := CostModel{CS: 3, CR: 7}
	cache, lists, _ := cachedStack(db, CacheConfig{}, cm)
	run := func() Stats {
		src := FromLists(lists, AllowAll)
		for i := 0; i < db.M(); i++ {
			for {
				if _, ok, _ := src.SortedNext(i); !ok {
					break
				}
			}
		}
		src.Random(0, 1)
		return src.Stats()
	}
	first := run()
	wantFirst := 3 * float64(db.N()*db.M())
	if first.ChargedSorted != wantFirst || first.ChargedRandom != 7 {
		t.Fatalf("first run charged (%g, %g), want (%g, 7)", first.ChargedSorted, first.ChargedRandom, wantFirst)
	}
	second := run()
	if second.Charged() != 0 {
		t.Fatalf("second run charged %g, want 0 (all hits)", second.Charged())
	}
	if second.Sorted != first.Sorted || second.Random != first.Random {
		t.Fatalf("logical counts changed between runs: %+v vs %+v", second, first)
	}
	if saved := cache.Stats().ChargedSaved; saved != first.Charged() {
		t.Fatalf("ChargedSaved = %g, want %g", saved, first.Charged())
	}
}

// TestCacheMemoBound checks the random-access memo stays within its
// capacity and still serves correct grades.
func TestCacheMemoBound(t *testing.T) {
	db := testDB(t)
	cache, lists, _ := cachedStack(db, CacheConfig{Memo: 2}, UnitCosts)
	src := FromLists(lists, AllowAll)
	for _, obj := range db.Objects() {
		want, _ := db.List(0).GradeOf(obj)
		if g, ok, _ := src.Random(0, obj); !ok || g != want {
			t.Fatalf("probe %d = (%v, %v), want (%v, true)", obj, g, ok, want)
		}
	}
	if n := cache.memo.len(); n > 2 {
		t.Fatalf("memo holds %d entries, bound is 2", n)
	}
}
