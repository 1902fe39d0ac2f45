package access

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
)

// CacheConfig bounds a Cache. Zero fields take the documented defaults.
// Every field is a bound, not a size: the page store and the memo grow with
// what they hold, so a bound far beyond what a workload reads costs nothing.
type CacheConfig struct {
	// PageSize is the number of consecutive sorted positions one cached
	// page covers (default 64, at most maxPageEntries). Pages fill on
	// demand and only within the span a read asked for, so caching never
	// performs a physical access a consumer did not ask for.
	PageSize int
	// Pages bounds the hot tier: the LRU of (list, prefix-page) pages
	// whose hits cost nothing (default 256).
	Pages int
	// ColdPages bounds the cold tier behind the hot one. A page evicted
	// from the hot tier is demoted into the cold tier subject to TinyLFU
	// frequency admission; a cold hit promotes the page back to hot and
	// charges ColdHitCost of the backend's declared cost. Zero defaults
	// to 4× Pages, saturating below math.MaxInt; negative disables the
	// cold tier entirely, restoring the flat single-LRU cache.
	ColdPages int
	// ColdHitCost is the fraction of the wrapped backend's declared
	// per-access cost charged when an access is served from the cold
	// tier (default 0.1; negative means cold hits are free; values above
	// 1 are clamped — a cold hit never costs more than a miss).
	ColdHitCost float64
	// Memo bounds the random-access memo: the number of (list, object)
	// grades retained across queries (default 4096).
	Memo int
}

// The caps on what a Cache sizes up front; below them a configuration is
// sized as configured (the largest in use is 256 + 1 024 pages of 64).
const (
	// maxSketchPages caps the Pages + ColdPages the admission sketch is
	// sized for (a 5 MiB sketch). The sketch does not grow with the
	// resident pages instead: its collisions, so admission, would change.
	maxSketchPages = 1 << 20
	maxPageEntries = 1 << 16 // caps PageSize: a page's slots take about 1 MiB
)

func (c CacheConfig) withDefaults() CacheConfig {
	if c.PageSize <= 0 {
		c.PageSize = 64
	}
	c.PageSize = min(c.PageSize, maxPageEntries)
	if c.Pages <= 0 {
		c.Pages = 256
	}
	switch {
	case c.ColdPages == 0:
		c.ColdPages = 4 * min(c.Pages, math.MaxInt/4)
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

// sketchPages is Pages + ColdPages capped at maxSketchPages, summed
// without overflow.
func (c CacheConfig) sketchPages() int {
	return min(min(c.Pages, maxSketchPages)+min(c.ColdPages, maxSketchPages), maxSketchPages)
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
// One map indexes every resident page, and each page records its tier, so
// a lookup is one map probe, a promotion or demotion edits the chain and
// the pool but no map, and a page is in at most one tier by construction.
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
	pages    map[pageKey]*cachePage // every resident page, hot or cold
	hot      cachePage              // the hot chain's sentinel: next is the MRU page, prev the demotion victim
	hotLen   int                    // pages on the hot chain
	cold     []*cachePage           // the cold pool, unordered: admission samples it by index
	sketch   *admitSketch           // nil when the cold tier is disabled
	coldFrac float64
	rngState uint64     // deterministic victim-sampling stream
	free     *cachePage // pages that left the cache, linked through next
	memo     memoTable
	stats    CacheStats
}

type pageKey struct {
	list int
	page int
}

type cachePage struct {
	key     pageKey
	entries []model.Entry // min(PageSize, the list's length) slots
	have    []bool        // which slots are filled
	tier    int           // index in the cold pool, or −1 on the hot chain
	// prev and next chain a hot page into the tier's recency order; next
	// also links the free list. Both are nil while the page is cold.
	prev, next *cachePage
}

// NewCache returns an empty cache with the given bounds.
func NewCache(cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:      cfg,
		pages:    map[pageKey]*cachePage{},
		coldFrac: cfg.ColdHitCost,
		memo:     newMemoTable(cfg.Memo),
	}
	c.hot.prev, c.hot.next = &c.hot, &c.hot
	if cfg.ColdPages > 0 {
		c.sketch = newAdmitSketch(cfg.sketchPages(), cfg.PageSize)
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
// key to its page, creating an empty page of size slots on a full miss:
// min(PageSize, the list's length), so a short list does not pay for a
// page it can never fill. A page from the free list is reused when it
// holds that many slots. fromCold reports that the page was found in the
// cold tier (it has been promoted to hot by the time the call returns —
// the caller charges the cold-hit fraction for the entry that found it
// there).
func (c *Cache) pageForLocked(key pageKey, size int) (pg *cachePage, fromCold bool) {
	c.touchLocked(key)
	if pg, ok := c.pages[key]; ok {
		if pg.tier < 0 {
			if c.hot.next != pg {
				pg.unlink()
				c.pushFront(pg)
			}
			return pg, false
		}
		c.coldRemoveLocked(pg.tier)
		c.insertHotLocked(pg)
		return pg, true
	}
	if pg = c.free; pg != nil {
		// A page too small for this list is left to the collector; a
		// shard's lists all have one length, so that happens only when
		// one cache serves lists of several lengths.
		c.free, pg.next = pg.next, nil
		if cap(pg.entries) < size {
			pg = nil
		}
	}
	if pg != nil {
		pg.key = key
		pg.entries, pg.have = pg.entries[:size], pg.have[:size]
		clear(pg.have)
	} else {
		pg = &cachePage{
			key:     key,
			entries: make([]model.Entry, size),
			have:    make([]bool, size),
		}
	}
	c.pages[key] = pg
	c.insertHotLocked(pg)
	return pg, false
}

// unlink takes pg out of the hot tier's recency chain.
func (pg *cachePage) unlink() {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// pushFront links the unlinked page pg in as the hot tier's most recently
// used page.
func (c *Cache) pushFront(pg *cachePage) {
	pg.prev, pg.next = &c.hot, c.hot.next
	c.hot.next.prev = pg
	c.hot.next = pg
}

// insertHotLocked puts pg at the front of the hot tier, demoting the hot
// LRU victim when the tier overflows.
func (c *Cache) insertHotLocked(pg *cachePage) {
	pg.tier = -1
	c.pushFront(pg)
	if c.hotLen++; c.hotLen > c.cfg.Pages {
		victim := c.hot.prev
		victim.unlink()
		c.hotLen--
		c.stats.HotEvictions++
		c.demoteLocked(victim)
	}
	c.checkTiersLocked(pg)
}

// dropLocked takes a page that leaves the cache entirely out of the index
// and puts it on the free list.
func (c *Cache) dropLocked(pg *cachePage) {
	delete(c.pages, pg.key)
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
	if c.cfg.ColdPages <= 0 {
		c.stats.Evictions++
		c.dropLocked(pg)
		return
	}
	if len(c.cold) >= c.cfg.ColdPages {
		minIdx, minEst := -1, math.MaxInt
		for s := 0; s < admitSampleSize; s++ {
			c.rngState++
			idx := int(splitmix64(c.rngState) % uint64(len(c.cold)))
			if est := c.sketch.estimate(pageHash(c.cold[idx].key)); est < minEst {
				minIdx, minEst = idx, est
			}
		}
		if c.sketch.estimate(pageHash(pg.key)) <= minEst {
			c.stats.AdmissionRejects++
			c.stats.Evictions++
			c.dropLocked(pg)
			return
		}
		c.dropLocked(c.cold[minIdx])
		c.coldRemoveLocked(minIdx)
		c.stats.ColdEvictions++
		c.stats.Evictions++
	}
	pg.tier = len(c.cold)
	c.cold = append(c.cold, pg)
	c.checkTiersLocked(pg)
}

// coldRemoveLocked takes the cold page at pool index idx out of the pool
// by moving the last cold page into its slot.
func (c *Cache) coldRemoveLocked(idx int) {
	last := len(c.cold) - 1
	if idx != last {
		c.cold[idx] = c.cold[last]
		c.cold[idx].tier = idx
	}
	c.cold[last] = nil
	c.cold = c.cold[:last]
}

// checkTiersLocked asserts the page index's invariants after pg moved:
// both tiers within their bounds, their counts adding up to the index, pg
// indexed under its key, and pg linked into the hot chain or sitting at
// its cold pool index. Compiled to a no-op without the invariants build
// tag.
func (c *Cache) checkTiersLocked(pg *cachePage) {
	if !invariantsEnabled {
		return
	}
	if c.hotLen > c.cfg.Pages || len(c.cold) > c.cfg.ColdPages {
		invariantViolated("tiers over their bounds: %d of %d hot, %d of %d cold", c.hotLen, c.cfg.Pages, len(c.cold), c.cfg.ColdPages)
	}
	if c.hotLen+len(c.cold) != len(c.pages) {
		invariantViolated("index holds %d pages, the tiers %d hot and %d cold", len(c.pages), c.hotLen, len(c.cold))
	}
	if c.pages[pg.key] != pg {
		invariantViolated("page %v not indexed under its key", pg.key)
	}
	if pg.tier < 0 && !(pg.prev != nil && pg.prev.next == pg && pg.next.prev == pg) {
		invariantViolated("hot page %v not linked into the chain", pg.key)
	}
	if pg.tier >= 0 && !(pg.tier < len(c.cold) && c.cold[pg.tier] == pg) {
		invariantViolated("cold page %v not at its pool index %d", pg.key, pg.tier)
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

// AtCostErr implements FallibleCostedList as AtCostNErr of one entry: a
// hot hit costs 0, a cold hit costs ColdHitCost × CS (and promotes the
// page), a miss fetches the entry from the backend, caches it in its
// (list, page) slot and costs CS. A position past the list's end panics,
// as the backend's own read would.
func (l *cachedList) AtCostErr(pos int) (model.Entry, float64, error) {
	var e [1]model.Entry
	var cost [1]float64
	n, err := l.AtCostNErr(pos, e[:], cost[:])
	if n == 0 && err == nil {
		panic(fmt.Sprintf("access: position %d beyond the cached list's %d entries", pos, l.n))
	}
	return e[0], cost[0], err
}

// AtCostNErr implements FallibleCostedBatchList: one lock acquisition per
// batch instead of per entry. Within each page the request touches, hits
// are copied out (hot free, the cold-finding entry at the cold fraction)
// and contiguous miss runs are filled with a single backend batch read
// directly into the page's slots — whole stretches of the page populate
// per miss, not entry-by-entry. The fill never extends past the requested
// range, so the cached run's physical accesses still never exceed an
// uncached run's, and the per-entry hit/miss charging, stats, sketch and
// LRU state are exactly what len(dst) one-entry reads would leave. A miss
// run that fails mid-fetch caches and accounts only the entries the
// backend actually delivered; the delivered prefix of dst is valid and the
// error is returned for the caller's retry policy: a failed fetch leaves
// its slots unfilled and the hit/miss accounting untouched, so the next
// read retries it, and a fault can never poison a page or the tier
// bookkeeping (the page's tier placement stands).
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
		pg, fromCold := c.pageForLocked(key, min(c.cfg.PageSize, l.n))
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
