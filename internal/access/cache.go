package access

import (
	"sync"

	"repro/internal/model"
)

// CacheConfig sizes a Cache. Zero fields take the documented defaults.
type CacheConfig struct {
	// PageSize is the number of consecutive sorted positions one cached
	// page covers (default 64). Pages fill on demand and only within the
	// span a read asked for, so caching never performs a physical access a
	// consumer did not ask for.
	PageSize int
	// Pages bounds the hot tier: the LRU of (list, prefix-page) pages
	// whose hits cost nothing (default 256).
	Pages int
	// ColdPages bounds the cold tier behind the hot one. A page evicted
	// from the hot tier is demoted into the cold tier subject to TinyLFU
	// frequency admission; a cold hit promotes the page back to hot and
	// charges ColdHitCost of the backend's declared cost. Zero defaults
	// to 4× Pages; negative disables the cold tier entirely, restoring
	// the flat single-LRU cache.
	ColdPages int
	// ColdHitCost is the fraction of the wrapped backend's declared
	// per-access cost charged when an access is served from the cold
	// tier (default 0.1; negative means cold hits are free; values above
	// 1 are clamped — a cold hit never costs more than a miss).
	ColdHitCost float64
	// Memo bounds the random-access memo: the number of (list, object)
	// grades retained across queries (default 4096). The memo grows as
	// probes arrive, so a bound far beyond what a workload probes costs
	// nothing.
	Memo int
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.PageSize <= 0 {
		c.PageSize = 64
	}
	if c.Pages <= 0 {
		c.Pages = 256
	}
	switch {
	case c.ColdPages == 0:
		c.ColdPages = 4 * c.Pages
	case c.ColdPages < 0:
		c.ColdPages = 0 // flat: no cold tier
	}
	switch {
	case c.ColdHitCost == 0:
		c.ColdHitCost = 0.1
	case c.ColdHitCost < 0:
		c.ColdHitCost = 0
	case c.ColdHitCost > 1:
		c.ColdHitCost = 1
	}
	if c.Memo <= 0 {
		c.Memo = 4096
	}
	return c
}

// CacheStats is a Cache's accounting snapshot. Misses and ProbeMisses are
// exactly the physical accesses the cache passed through to its backends,
// so cachedPhysical = Misses + ProbeMisses is directly comparable with an
// uncached run's access counts.
type CacheStats struct {
	Hits        int64 // sorted entries served from the hot tier (cost 0)
	ColdHits    int64 // sorted entries served from the cold tier (ColdHitCost × declared)
	Misses      int64 // sorted entries fetched from the backend (and cached)
	ProbeHits   int64 // random probes served from the memo
	ProbeMisses int64 // random probes passed through to the backend
	Evictions   int64 // pages dropped from the cache entirely
	// HotEvictions counts pages demoted out of the hot tier; with a cold
	// tier configured each demotion then either lands in the cold tier
	// (possibly displacing a sampled minimum-frequency victim, counted in
	// ColdEvictions) or is refused by the admission filter (counted in
	// AdmissionRejects and Evictions). Without a cold tier every hot
	// eviction is a plain eviction.
	HotEvictions     int64
	ColdEvictions    int64 // cold-tier residents displaced by an admitted page
	AdmissionRejects int64 // demoted pages the TinyLFU filter refused to admit
	// ChargedSaved is the middleware cost the cache absorbed: Σ of the
	// wrapped backends' declared per-access costs over all hits, minus
	// the ColdHitCost fraction cold-tier hits still charge.
	ChargedSaved float64
}

// HitRate returns the sorted-page hit fraction across both tiers (0 when
// nothing was read).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.ColdHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.ColdHits) / float64(total)
}

// Cache is a per-shard middleware cache shared across queries: a two-tier
// bounded LRU of (list, prefix-page) sorted pages plus a bounded
// random-access memo. Hot shards stop re-fetching the same list prefixes —
// the second query over a shard reads the pages the first one filled — and
// repeated random probes of the same object are answered from the memo.
//
// The page store is segmented into a small hot tier (hits cost nothing, as
// a flat LRU's do) over a larger cold tier whose hits charge a configurable
// fraction of the backend's declared cost — the model of a compressed or
// second-level store that is much cheaper than the backend but not free. A
// hot-tier overflow demotes its LRU victim toward the cold tier through a
// TinyLFU admission filter (admitSketch): when the cold tier is full, the
// demoted page is compared against the minimum-frequency page of a small
// random sample of cold residents and only displaces that victim when its
// own estimated frequency is strictly higher, so a one-shot deep scan
// streams through the hot tier without flushing the repeat-heavy working
// set the cold tier protects. A cold hit promotes the page back to the hot
// tier. Sampled (rather than oldest-resident) victim selection matters:
// under a cyclic working set the coldest resident by recency is the very
// page the stream is about to need again, while the sample finds the
// one-shot squatters whose frequency never grew.
//
// Grades are immutable, so the cache needs no invalidation: a cached entry
// is exactly what the backend would serve. Pages fill on first demand and
// only within the span that was read — a single-entry miss fetches one
// entry, a batch read fetches its uncached runs, never positions beyond
// the request — which pins the correctness property the tests assert: a
// cached run's physical accesses never exceed an uncached run's.
//
// Both recency orders are kept without per-access allocation: the hot
// tier chains its pages through their own prev/next links, the memo is a
// flat open-addressed table (memoTable), and a page that leaves the cache
// entirely goes on a free list the next full miss reuses. A warm, full
// cache therefore allocates nothing on a hit, a miss or an eviction.
//
// A single Cache and all lists wrapped by it are safe for concurrent use;
// one mutex guards the whole structure. The mutex is held across a
// miss's backend fetch on purpose: concurrent queries missing on the same
// entry would otherwise race to fetch it twice, breaking the
// never-more-physical-accesses guarantee.
type Cache struct {
	mu       sync.Mutex
	cfg      CacheConfig
	hot      cacheTier
	cold     coldTier
	sketch   *admitSketch // nil when the cold tier is disabled
	coldFrac float64
	rngState uint64     // deterministic victim-sampling stream
	free     *cachePage // pages that left the cache, linked through next
	memo     memoTable
	stats    CacheStats
}

// cacheTier is the hot tier: a bounded LRU segment of the page store. Its
// pages are chained in recency order through their prev/next links around
// the sentinel head: head.next is the most recently used page, head.prev
// the demotion victim.
type cacheTier struct {
	pages map[pageKey]*cachePage
	head  cachePage
	cap   int
}

// coldTier is the frequency-managed segment behind the hot tier. It keeps
// no recency order — eviction picks the minimum-frequency page of a small
// random sample — so residents live in a flat pool with an index map for
// O(1) lookup, swap-removal and uniform sampling.
type coldTier struct {
	pages map[pageKey]int // page key → index into pool
	pool  []*cachePage
	cap   int
}

type pageKey struct {
	list int
	page int
}

type cachePage struct {
	key     pageKey
	entries []model.Entry // PageSize slots
	have    []bool        // which slots are filled
	// prev and next chain a hot page into the tier's recency order; next
	// also links the free list. Both are nil while the page is cold.
	prev, next *cachePage
}

// NewCache returns an empty cache with the given bounds.
func NewCache(cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:      cfg,
		hot:      cacheTier{pages: make(map[pageKey]*cachePage, cfg.Pages), cap: cfg.Pages},
		cold:     coldTier{pages: make(map[pageKey]int, cfg.ColdPages), cap: cfg.ColdPages},
		coldFrac: cfg.ColdHitCost,
		memo:     newMemoTable(cfg.Memo),
	}
	c.hot.head.prev, c.hot.head.next = &c.hot.head, &c.hot.head
	if cfg.ColdPages > 0 {
		c.sketch = newAdmitSketch(cfg.Pages+cfg.ColdPages, cfg.PageSize)
	}
	return c
}

// Stats returns a snapshot of the cache accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wrap returns a Backend view of src whose accesses go through the cache.
// listIdx keys the cache entries: wrap each of a shard's m lists with its
// own index, sharing one Cache across them (and across every query on the
// shard). The returned view implements CostedList, so Sources above it
// charge misses the wrapped backend's declared cost, cold-tier hits the
// ColdHitCost fraction of it, and hot hits nothing.
func (c *Cache) Wrap(listIdx int, src ListSource) Backend {
	return &cachedList{c: c, list: listIdx, src: src, n: src.Len(), costs: BackendCosts(src)}
}

// WrapLists wraps each list of one shard with the shared cache c,
// preserving order.
func WrapLists(c *Cache, lists []ListSource) []ListSource {
	out := make([]ListSource, len(lists))
	for i, l := range lists {
		out[i] = c.Wrap(i, l)
	}
	return out
}

// touchLocked records one access to key in the admission sketch.
func (c *Cache) touchLocked(key pageKey) {
	if c.sketch != nil {
		c.sketch.touch(pageHash(key))
	}
}

// pageForLocked records the access in the admission sketch and resolves
// key to its page, creating an empty page on a full miss. fromCold
// reports that the page was found in the cold tier (it has been promoted
// to hot by the time the call returns — the caller charges the cold-hit
// fraction for the entry that found it there).
func (c *Cache) pageForLocked(key pageKey) (pg *cachePage, fromCold bool) {
	c.touchLocked(key)
	if pg, ok := c.hot.pages[key]; ok {
		if c.hot.head.next != pg {
			pg.unlink()
			c.hot.pushFront(pg)
		}
		return pg, false
	}
	if idx, ok := c.cold.pages[key]; ok {
		pg = c.cold.pool[idx]
		c.coldRemoveLocked(idx)
		c.insertHotLocked(pg)
		return pg, true
	}
	if pg = c.free; pg != nil {
		c.free, pg.next = pg.next, nil
		pg.key = key
		clear(pg.have)
	} else {
		pg = &cachePage{
			key:     key,
			entries: make([]model.Entry, c.cfg.PageSize),
			have:    make([]bool, c.cfg.PageSize),
		}
	}
	c.insertHotLocked(pg)
	return pg, false
}

// unlink takes pg out of the hot tier's recency chain.
func (pg *cachePage) unlink() {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// pushFront links the unlinked page pg in as the tier's most recently
// used page.
func (t *cacheTier) pushFront(pg *cachePage) {
	pg.prev, pg.next = &t.head, t.head.next
	t.head.next.prev = pg
	t.head.next = pg
}

// insertHotLocked puts pg at the front of the hot tier, demoting the hot
// LRU victim when the tier overflows.
func (c *Cache) insertHotLocked(pg *cachePage) {
	c.hot.pages[pg.key] = pg
	c.hot.pushFront(pg)
	if len(c.hot.pages) > c.hot.cap {
		victim := c.hot.head.prev
		victim.unlink()
		delete(c.hot.pages, victim.key)
		c.stats.HotEvictions++
		c.demoteLocked(victim)
	}
	c.checkTiersLocked(pg.key)
}

// releaseLocked puts a page that left the cache entirely on the free list.
func (c *Cache) releaseLocked(pg *cachePage) {
	pg.next = c.free
	c.free = pg
}

// admitSampleSize is how many cold residents the admission filter samples
// when picking a displacement victim. Five uniform draws find a
// below-working-set-frequency squatter with high probability whenever one
// exists, at constant cost per demotion.
const admitSampleSize = 5

// demoteLocked offers a page evicted from the hot tier to the cold tier.
// With the cold tier disabled the page is simply dropped. While the cold
// tier has room the page is admitted unconditionally; once it is full the
// TinyLFU sketch arbitrates: the newcomer is compared against the
// minimum-frequency page among a small deterministic random sample of
// cold residents and displaces that victim only when its own estimate is
// strictly higher, otherwise the newcomer is dropped (an admission
// reject). One-shot scan pages (doorkeeper-only estimate) therefore never
// displace a repeat-read resident, while a demoted working-set page finds
// and replaces the low-frequency squatters such scans leave behind.
// Either losing page leaves the cache entirely, counts as an Eviction and
// goes on the free list.
func (c *Cache) demoteLocked(pg *cachePage) {
	if c.cold.cap <= 0 {
		c.stats.Evictions++
		c.releaseLocked(pg)
		return
	}
	if len(c.cold.pool) >= c.cold.cap {
		minIdx, minEst := -1, int(^uint(0)>>1)
		for s := 0; s < admitSampleSize; s++ {
			c.rngState++
			idx := int(splitmix64(c.rngState) % uint64(len(c.cold.pool)))
			if est := c.sketch.estimate(pageHash(c.cold.pool[idx].key)); est < minEst {
				minIdx, minEst = idx, est
			}
		}
		if c.sketch.estimate(pageHash(pg.key)) <= minEst {
			c.stats.AdmissionRejects++
			c.stats.Evictions++
			c.releaseLocked(pg)
			return
		}
		c.releaseLocked(c.cold.pool[minIdx])
		c.coldRemoveLocked(minIdx)
		c.stats.ColdEvictions++
		c.stats.Evictions++
	}
	c.cold.pages[pg.key] = len(c.cold.pool)
	c.cold.pool = append(c.cold.pool, pg)
	c.checkTiersLocked(pg.key)
}

// coldRemoveLocked deletes the cold resident at pool index idx by
// swapping the last resident into its slot.
func (c *Cache) coldRemoveLocked(idx int) {
	pool := c.cold.pool
	delete(c.cold.pages, pool[idx].key)
	last := len(pool) - 1
	if idx != last {
		pool[idx] = pool[last]
		c.cold.pages[pool[idx].key] = idx
	}
	pool[last] = nil
	c.cold.pool = pool[:last]
}

// checkTiersLocked asserts the tier invariants for the just-moved key:
// occupancies within capacity and the key resident in at most one tier.
// Compiled to a no-op without the invariants build tag.
func (c *Cache) checkTiersLocked(key pageKey) {
	if !invariantsEnabled {
		return
	}
	if len(c.hot.pages) > c.hot.cap {
		invariantViolated("hot tier over capacity: %d > %d", len(c.hot.pages), c.hot.cap)
	}
	if len(c.cold.pool) > c.cold.cap && c.cold.cap > 0 {
		invariantViolated("cold tier over capacity: %d > %d", len(c.cold.pool), c.cold.cap)
	}
	pg, inHot := c.hot.pages[key]
	_, inCold := c.cold.pages[key]
	if inHot && inCold {
		invariantViolated("page %v resident in both tiers", key)
	}
	if inHot && !(pg.key == key && pg.prev != nil && pg.prev.next == pg && pg.next.prev == pg) {
		invariantViolated("hot tier map/chain out of sync for page %v", key)
	}
	if len(c.cold.pages) != len(c.cold.pool) {
		invariantViolated("cold tier map/pool out of sync: %d != %d", len(c.cold.pages), len(c.cold.pool))
	}
	if inCold {
		idx := c.cold.pages[key]
		if !(idx >= 0 && idx < len(c.cold.pool) && c.cold.pool[idx].key == key) {
			invariantViolated("cold tier index map broken for page %v", key)
		}
	}
}

// cachedList is the per-list view over a shared Cache.
type cachedList struct {
	c     *Cache
	list  int
	src   ListSource
	n     int // src.Len(), fixed: lists are immutable
	costs CostModel
}

func (l *cachedList) Len() int { return l.n }

// AccessCosts implements Backend: the cached view declares the wrapped
// backend's costs (what a miss bills); hit discounts are reported through
// the CostedList methods.
func (l *cachedList) AccessCosts() CostModel { return l.costs }

// At implements ListSource through AtCost.
func (l *cachedList) At(pos int) model.Entry {
	e, _ := l.AtCost(pos)
	return e
}

// hitCostLocked charges one filled-slot access: a hot hit costs 0, a
// cold hit the ColdHitCost fraction of the declared cost. fromCold is
// true only for the access that found the page in the cold tier; the
// promotion it triggered makes every later access to the page a hot hit.
func (l *cachedList) hitCostLocked(fromCold bool) float64 {
	c := l.c
	if fromCold {
		c.stats.ColdHits++
		c.stats.ChargedSaved += (1 - c.coldFrac) * l.costs.CS
		return c.coldFrac * l.costs.CS
	}
	c.stats.Hits++
	c.stats.ChargedSaved += l.costs.CS
	return 0
}

// AtCost implements CostedList through AtCostErr; a backend failure
// panics with the error.
func (l *cachedList) AtCost(pos int) (model.Entry, float64) { return must2(l.AtCostErr(pos)) }

// AtCostN implements CostedBatchList through AtCostNErr.
func (l *cachedList) AtCostN(pos int, dst []model.Entry, costs []float64) int {
	return must(l.AtCostNErr(pos, dst, costs))
}

// GradeOf implements ListSource through GradeOfCost.
func (l *cachedList) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	g, ok, _ := l.GradeOfCost(obj)
	return g, ok
}

// GradeOfCost implements CostedList through GradeOfCostErr.
func (l *cachedList) GradeOfCost(obj model.ObjectID) (model.Grade, bool, float64) {
	return must3(l.GradeOfCostErr(obj))
}

// Fallible reports whether the wrapped backend can fail; the cache itself
// never fails, so a cache over an infallible stack keeps the fast path.
func (l *cachedList) Fallible() bool { return IsFallible(l.src) }

// AtErr implements FallibleList.
func (l *cachedList) AtErr(pos int) (model.Entry, error) {
	e, _, err := l.AtCostErr(pos)
	return e, err
}

// GradeOfErr implements FallibleList.
func (l *cachedList) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	g, ok, _, err := l.GradeOfCostErr(obj)
	return g, ok, err
}

// AtNErr implements FallibleBatchList. Sources prefer AtCostNErr (the
// costed path) over this, so the per-call scratch is off the hot path.
func (l *cachedList) AtNErr(pos int, dst []model.Entry) (int, error) {
	return l.AtCostNErr(pos, dst, make([]float64, len(dst)))
}

// AtCostErr implements FallibleCostedList: a hot hit costs 0, a cold hit
// costs ColdHitCost × CS (and promotes the page), a miss fetches exactly
// one entry from the backend, caches it in its (list, page) slot and costs
// CS. A failed backend fetch leaves the page slot unfilled and the
// hit/miss accounting untouched — the next read retries the fetch, and a
// fault can never poison a page or the tier bookkeeping (the page's tier
// placement stands; only the slot stays empty).
func (l *cachedList) AtCostErr(pos int) (model.Entry, float64, error) {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pageKey{list: l.list, page: pos / c.cfg.PageSize}
	off := pos % c.cfg.PageSize
	pg, fromCold := c.pageForLocked(key)
	if pg.have[off] {
		return pg.entries[off], l.hitCostLocked(fromCold), nil
	}
	//lint:lockheld single-flight: concurrent readers of a missing entry must not fetch it twice
	e, err := atErr(l.src, pos)
	if err != nil {
		return model.Entry{}, 0, err
	}
	pg.entries[off] = e
	pg.have[off] = true
	c.stats.Misses++
	return e, l.costs.CS, nil
}

// AtCostNErr implements FallibleCostedBatchList: one lock acquisition per
// batch instead of per entry. Within each page the request touches, hits
// are copied out (hot free, the cold-finding entry at the cold fraction)
// and contiguous miss runs are filled with a single backend batch read
// directly into the page's slots — whole stretches of the page populate
// per miss, not entry-by-entry. The fill never extends past the requested
// range, so the cached run's physical accesses still never exceed an
// uncached run's, and the per-entry hit/miss charging, stats, sketch and
// LRU state are exactly what len(dst) AtCostErr calls would leave. A miss
// run that fails mid-fetch caches and accounts only the entries the
// backend actually delivered; the delivered prefix of dst is valid and the
// error is returned for the caller's retry policy.
func (l *cachedList) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	n := l.n - pos
	if n <= 0 {
		return 0, nil
	}
	if n > len(dst) {
		n = len(dst)
	}
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; {
		key := pageKey{list: l.list, page: (pos + i) / c.cfg.PageSize}
		off := (pos + i) % c.cfg.PageSize
		span := c.cfg.PageSize - off
		if span > n-i {
			span = n - i
		}
		pg, fromCold := c.pageForLocked(key)
		for j := 0; j < span; {
			if j > 0 {
				c.touchLocked(key)
			}
			if pg.have[off+j] {
				dst[i+j] = pg.entries[off+j]
				costs[i+j] = l.hitCostLocked(j == 0 && fromCold)
				j++
				continue
			}
			run := 1
			for j+run < span && !pg.have[off+j+run] {
				run++
			}
			//lint:lockheld single-flight: the miss run fills page slots other readers are waiting on
			got, err := fetchIntoErr(l.src, pos+i+j, pg.entries[off+j:off+j+run])
			// Mirror the sketch touches the skipped single-step calls would
			// record: one per attempted entry beyond the run's first (a
			// failed attempt touches before it fails, entries past it are
			// never reached).
			ext := run - 1
			if err != nil && got < run {
				ext = got
			}
			for t := 0; t < ext; t++ {
				c.touchLocked(key)
			}
			for t := 0; t < got; t++ {
				pg.have[off+j+t] = true
				dst[i+j+t] = pg.entries[off+j+t]
				costs[i+j+t] = l.costs.CS
				c.stats.Misses++
			}
			if err != nil {
				return i + j + got, err
			}
			j += run
		}
		i += span
	}
	return n, nil
}

// GradeOfCostErr implements FallibleCostedList: a memo hit costs 0, a miss
// probes the backend once, memoizes the answer (absence included) and
// costs CR. A failed probe memoizes nothing and counts no miss.
func (l *cachedList) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	list := int32(l.list)
	if e := c.memo.find(list, obj); e != 0 {
		c.memo.touch(e)
		it := &c.memo.items[e]
		c.stats.ProbeHits++
		c.stats.ChargedSaved += l.costs.CR
		return it.grade, it.ok, 0, nil
	}
	//lint:lockheld single-flight: the memo must admit exactly one probe per missing object
	g, ok, err := gradeOfErr(l.src, obj)
	if err != nil {
		return 0, false, 0, err
	}
	c.memo.add(list, obj, g, ok)
	c.stats.ProbeMisses++
	return g, ok, l.costs.CR, nil
}
