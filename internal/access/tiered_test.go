package access

import (
	"testing"
	"time"

	"repro/internal/model"
)

// scanDB builds a single-list database of n descending grades — the
// fixture for scan-pattern cache tests where only positions matter.
func scanDB(t *testing.T, n int) *model.Database {
	t.Helper()
	b := model.NewBuilder(1)
	for i := 0; i < n; i++ {
		b.MustAdd(model.ObjectID(i+1), model.Grade(n-i)/model.Grade(n+1))
	}
	return b.MustBuild()
}

// checkTierConsistency asserts the page index's structure, which the
// invariants build checks online one moved page at a time: both tiers
// within their bounds, every page on the hot chain and in the cold pool
// indexed under its key and recording its tier, and the index holding
// exactly those pages.
func checkTierConsistency(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hotLen > c.cfg.Pages || len(c.cold) > c.cfg.ColdPages {
		t.Fatalf("tiers over their bounds: %d of %d hot, %d of %d cold", c.hotLen, c.cfg.Pages, len(c.cold), c.cfg.ColdPages)
	}
	chained := 0
	for pg := c.hot.next; pg != &c.hot; pg = pg.next {
		if pg.next.prev != pg || pg.tier != -1 || c.pages[pg.key] != pg {
			t.Fatalf("hot chain broken at page %v", pg.key)
		}
		if chained++; chained > c.hotLen {
			break
		}
	}
	if chained != c.hotLen {
		t.Fatalf("hot chain links %d pages, the tier counts %d", chained, c.hotLen)
	}
	for i, pg := range c.cold {
		if pg.tier != i || c.pages[pg.key] != pg {
			t.Fatalf("cold page %v at pool index %d records tier %d", pg.key, i, pg.tier)
		}
	}
	if len(c.pages) != c.hotLen+len(c.cold) {
		t.Fatalf("index holds %d pages, the tiers %d hot and %d cold", len(c.pages), c.hotLen, len(c.cold))
	}
}

// TestTieredCacheColdHitCharging pins the cold-tier pricing state machine
// on an exact miniature: miss, demotion to cold, a cold hit charged the
// configured fraction (and promoting the page), then a free hot hit.
func TestTieredCacheColdHitCharging(t *testing.T) {
	db := scanDB(t, 4)
	cm := CostModel{CS: 4, CR: 1}
	c := NewCache(CacheConfig{PageSize: 1, Pages: 1, ColdPages: 2, ColdHitCost: 0.25})
	sub := NewGradedSubsystem("sub", db.List(0), 1).WithCosts(cm)
	l := c.Wrap(0, sub).(CostedList)

	steps := []struct {
		pos      int
		wantCost float64
	}{
		{0, 4}, // miss
		{1, 4}, // miss; page 0 demoted to cold
		{0, 1}, // cold hit: 0.25 × 4, page 0 promoted, page 1 demoted
		{0, 0}, // hot hit
	}
	for i, s := range steps {
		e, cost := l.AtCost(s.pos)
		if want := db.List(0).At(s.pos); e != want {
			t.Fatalf("step %d: entry %v, want %v", i, e, want)
		}
		if cost != s.wantCost {
			t.Fatalf("step %d (pos %d): cost %g, want %g", i, s.pos, cost, s.wantCost)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.ColdHits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hot hit, 1 cold hit, 2 misses", st)
	}
	if st.HotEvictions != 2 || st.ColdEvictions != 0 || st.AdmissionRejects != 0 || st.Evictions != 0 {
		t.Fatalf("tier stats %+v, want 2 hot demotions and nothing dropped", st)
	}
	if want := (1-0.25)*4 + 4; st.ChargedSaved != want {
		t.Fatalf("ChargedSaved %g, want %g", st.ChargedSaved, want)
	}
	checkTierConsistency(t, c)
}

// TestAdmitSketchAging pins the TinyLFU filter's mechanics: the
// doorkeeper absorbs the first touch, counters saturate at 15, aging
// halves every estimate and clears the doorkeeper, and a fresh item can
// re-earn frequency after the epoch — the "admissions recover" property.
func TestAdmitSketchAging(t *testing.T) {
	s := newAdmitSketch(16, 1)
	h := pageHash(pageKey{list: 1, page: 2})
	if got := s.estimate(h); got != 0 {
		t.Fatalf("estimate of untouched item = %d, want 0", got)
	}
	s.touch(h)
	if got := s.estimate(h); got != 1 {
		t.Fatalf("after one touch (doorkeeper only) estimate = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		s.touch(h)
	}
	if got := s.estimate(h); got != 6 {
		t.Fatalf("after 6 touches estimate = %d, want 6 (5 counted + doorkeeper)", got)
	}
	for i := 0; i < 40; i++ {
		s.touch(h)
	}
	if got := s.estimate(h); got != 16 {
		t.Fatalf("saturated estimate = %d, want 16 (counter cap 15 + doorkeeper)", got)
	}

	s.age()
	if got := s.estimate(h); got != 7 {
		t.Fatalf("after aging estimate = %d, want 7 (15 halved, doorkeeper cleared)", got)
	}
	// The doorkeeper was cleared, so the item's next touch is absorbed
	// there again rather than bumping counters.
	s.touch(h)
	if got := s.estimate(h); got != 8 {
		t.Fatalf("after aging + one touch estimate = %d, want 8", got)
	}

	// Recovery: a fresh item accumulates frequency from zero after the
	// epoch and can overtake the decayed incumbent.
	h2 := pageHash(pageKey{list: 3, page: 4})
	for i := 0; i < 12; i++ {
		s.touch(h2)
	}
	if s.estimate(h2) <= s.estimate(h) {
		t.Fatalf("fresh item estimate %d did not overtake decayed incumbent %d", s.estimate(h2), s.estimate(h))
	}

	// The sample trigger: filling the epoch fires aging automatically.
	s2 := newAdmitSketch(16, 1)
	for i := 0; i < 30; i++ {
		s2.touch(h)
	}
	before := s2.estimate(h)
	for s2.adds < s2.sample-1 {
		s2.touch(h2)
	}
	s2.touch(h) // crosses the sample threshold → age()
	if s2.adds >= s2.sample {
		t.Fatalf("adds %d not reset below sample %d after aging", s2.adds, s2.sample)
	}
	if after := s2.estimate(h); after > before/2+1 {
		t.Fatalf("estimate %d did not decay after the epoch (was %d)", after, before)
	}
}

// TestTieredScanResistance is the tentpole's behavioral claim: a one-shot
// deep scan must not flush the repeat-heavy working set. With frequency
// admission the warm pages survive the scan in the cold tier and are
// re-served as (cheap) cold hits; the flat LRU of the same total size
// loses them and pays full misses.
func TestTieredScanResistance(t *testing.T) {
	const n = 32
	db := scanDB(t, n)
	cm := CostModel{CS: 2, CR: 1}

	run := func(cfg CacheConfig) (CacheStats, float64) {
		c := NewCache(cfg)
		sub := NewGradedSubsystem("sub", db.List(0), 1).WithCosts(cm)
		l := c.Wrap(0, sub).(CostedList)
		// Warm a 2-page working set with repeat accesses.
		for i := 0; i < 10; i++ {
			l.AtCost(0)
			l.AtCost(1)
		}
		// One-shot deep scan over everything else.
		for pos := 2; pos < n; pos++ {
			l.AtCost(pos)
		}
		// Return to the working set; charge what the cache asks now.
		var charged float64
		for i := 0; i < 2; i++ {
			for pos := 0; pos < 2; pos++ {
				e, cost := l.AtCost(pos)
				if want := db.List(0).At(pos); e != want {
					t.Fatalf("pos %d: entry %v, want %v", pos, e, want)
				}
				charged += cost
			}
		}
		checkTierConsistency(t, c)
		return c.Stats(), charged
	}

	tiered, tieredCharged := run(CacheConfig{PageSize: 1, Pages: 2, ColdPages: 2, ColdHitCost: 0.5})
	flat, flatCharged := run(CacheConfig{PageSize: 1, Pages: 4, ColdPages: -1})

	if tiered.AdmissionRejects == 0 {
		t.Fatalf("scan pages were all admitted to the cold tier: %+v", tiered)
	}
	if tiered.ColdHits < 2 {
		t.Fatalf("working set not re-served from the cold tier: %+v", tiered)
	}
	if tiered.Misses >= flat.Misses {
		t.Fatalf("tiered cache missed %d times, flat LRU %d — no scan resistance", tiered.Misses, flat.Misses)
	}
	// The return to the working set: two cold hits at half cost then hot
	// hits under tiering; under the flat LRU the scan flushed both warm
	// pages, so the first return round pays two full misses.
	if wantTiered := 2 * 0.5 * cm.CS; tieredCharged != wantTiered {
		t.Fatalf("tiered return charged %g, want %g", tieredCharged, wantTiered)
	}
	if wantFlat := 2 * cm.CS; flatCharged != wantFlat {
		t.Fatalf("flat return charged %g, want %g (LRU loop flush)", flatCharged, wantFlat)
	}
	if tieredCharged >= flatCharged {
		t.Fatalf("tiered charged %g ≥ flat %g on the post-scan return", tieredCharged, flatCharged)
	}
	if tiered.HitRate() <= flat.HitRate() {
		t.Fatalf("tiered hit rate %.3f not above flat %.3f", tiered.HitRate(), flat.HitRate())
	}
}

// TestFaultyTieredCacheBookkeeping runs a bursty fault injector under a
// tiny tiered cache and checks that outages never corrupt the tier
// bookkeeping: failed fetches leave slots empty but tiers consistent,
// already-cached entries keep serving through outage windows, and the
// delivered values always match the backing list.
func TestFaultyTieredCacheBookkeeping(t *testing.T) {
	const n = 24
	db := scanDB(t, n)
	c := NewCache(CacheConfig{PageSize: 2, Pages: 2, ColdPages: 2, ColdHitCost: 0.5})
	faulty := NewFaulty(db.List(0), FaultPlan{Rate: 0.3, BurstEvery: 11, BurstLen: 4, Seed: 7})
	l := c.Wrap(0, faulty).(interface {
		FallibleCostedList
		FallibleCostedBatchList
	})

	// Pin position 0 into the cache first so a known entry exists before
	// any outage window opens.
	for {
		if _, _, err := l.AtCostErr(0); err == nil {
			break
		}
	}

	faults := 0
	for pass := 0; pass < 4; pass++ {
		for pos := 0; pos < n; pos++ {
			e, _, err := l.AtCostErr(pos)
			if err != nil {
				faults++
				continue
			}
			if want := db.List(0).At(pos); e != want {
				t.Fatalf("pass %d pos %d: entry %v, want %v", pass, pos, e, want)
			}
		}
		// Batched reads across the same faulty stack: the delivered
		// prefix must be valid no matter where the fault lands.
		buf := make([]model.Entry, 5)
		costs := make([]float64, 5)
		for pos := 0; pos < n; pos += 5 {
			got, err := l.AtCostNErr(pos, buf, costs)
			for i := 0; i < got; i++ {
				if want := db.List(0).At(pos + i); buf[i] != want {
					t.Fatalf("pass %d batch pos %d+%d: entry %v, want %v", pass, pos, i, buf[i], want)
				}
			}
			if err != nil {
				faults++
			}
		}
		checkTierConsistency(t, c)
	}
	if faults == 0 {
		t.Fatal("fault plan injected nothing; the test exercised no outage")
	}
	st := c.Stats()
	if st.Hits+st.ColdHits == 0 {
		t.Fatalf("no hits were served across passes: %+v", st)
	}
	// A hot-cached position never consults the faulty backend: with the
	// whole schedule's remaining accesses failing, position 0's page —
	// re-pinned hot — still serves.
	for {
		if _, _, err := l.AtCostErr(0); err == nil {
			break
		}
	}
	dead := NewFaulty(db.List(0), FaultPlan{Dead: true})
	ldead := c.Wrap(0, dead).(FallibleCostedList)
	if _, _, err := ldead.AtCostErr(0); err != nil {
		t.Fatalf("cached entry failed to serve over a dead backend: %v", err)
	}
	checkTierConsistency(t, c)
}

// TestRemoteBatchRTT pins the batched latency model: a batch pays one
// round-trip draw plus a deterministic per-entry marginal, consumes
// exactly one slot of the jitter/straggler schedule, and leaves the
// single-entry path (and one-entry batches) byte-identical to the
// per-entry model.
func TestRemoteBatchRTT(t *testing.T) {
	db := scanDB(t, 32)
	const base = 50 * time.Microsecond

	// Per-entry model: n draws per batch.
	perEntry := NewRemote(db.List(0), CostModel{CS: 1, CR: 1}, Latency{Sorted: base})
	buf := make([]model.Entry, 8)
	perEntry.AtN(0, buf)
	if got, want := perEntry.SimulatedLatency(), 8*base; got != want {
		t.Fatalf("per-entry batch slept %v, want %v", got, want)
	}

	// Batch-RTT model: one draw + (n−1) marginals.
	batched := NewRemote(db.List(0), CostModel{CS: 1, CR: 1},
		Latency{Sorted: base, BatchRTT: true, BatchMarginal: 0.25})
	batched.AtN(0, buf)
	want := base + time.Duration(0.25*float64(base)*7)
	if got := batched.SimulatedLatency(); got != want {
		t.Fatalf("batched batch slept %v, want %v", got, want)
	}
	for i := range buf {
		if w := db.List(0).At(i); buf[i] != w {
			t.Fatalf("entry %d = %v, want %v", i, buf[i], w)
		}
	}

	// Single-entry accesses and one-entry batches are unchanged by the
	// mode: same draw, same schedule slot.
	single := NewRemote(db.List(0), CostModel{CS: 1, CR: 1},
		Latency{Sorted: base, BatchRTT: true, BatchMarginal: 0.25})
	single.At(0)
	single.AtN(1, buf[:1])
	if got, want := single.SimulatedLatency(), 2*base; got != want {
		t.Fatalf("single-entry accesses slept %v, want %v", got, want)
	}

	// Schedule preservation: one batch consumes one straggler slot. With
	// StragglerEvery=2 the second "access" — the whole batch — is the
	// straggler, stretched 10× (the default factor), marginals unstretched.
	strag := NewRemote(db.List(0), CostModel{CS: 1, CR: 1},
		Latency{Sorted: base, StragglerEvery: 2, BatchRTT: true, BatchMarginal: 0.25})
	strag.At(0) // seq 1: normal
	before := strag.SimulatedLatency()
	strag.AtN(0, buf) // seq 2: straggler batch
	got := strag.SimulatedLatency() - before
	if want := 10*base + time.Duration(0.25*float64(base)*7); got != want {
		t.Fatalf("straggler batch slept %v, want %v", got, want)
	}
}

// TestRemoteBatchRTTFallible checks the fallible batch path under the
// round-trip model: the round trip is paid even when the batch fails
// mid-way, marginals accrue only for attempted entries, and the
// delivered prefix is valid.
func TestRemoteBatchRTTFallible(t *testing.T) {
	db := scanDB(t, 16)
	const base = 40 * time.Microsecond
	faulty := NewFaulty(db.List(0), FaultPlan{Rate: 1, Seed: 3}) // every access fails
	r := NewRemote(faulty, CostModel{CS: 1, CR: 1},
		Latency{Sorted: base, BatchRTT: true, BatchMarginal: 0.5})
	buf := make([]model.Entry, 4)
	got, err := r.AtNErr(0, buf)
	if err == nil || got != 0 {
		t.Fatalf("batch over all-failing backend returned (%d, %v), want (0, error)", got, err)
	}
	// The round trip travelled the wire; no marginals for undelivered
	// entries past the first failure.
	if slept := r.SimulatedLatency(); slept != base {
		t.Fatalf("failed batch slept %v, want %v (one round trip)", slept, base)
	}

	ok := NewRemote(NewFaulty(db.List(0), FaultPlan{}), CostModel{CS: 1, CR: 1},
		Latency{Sorted: base, BatchRTT: true, BatchMarginal: 0.5})
	got, err = ok.AtNErr(0, buf)
	if err != nil || got != 4 {
		t.Fatalf("fault-free fallible batch returned (%d, %v), want (4, nil)", got, err)
	}
	if slept, want := ok.SimulatedLatency(), base+time.Duration(0.5*float64(base)*3); slept != want {
		t.Fatalf("fallible batch slept %v, want %v", slept, want)
	}
	for i := 0; i < got; i++ {
		if w := db.List(0).At(i); buf[i] != w {
			t.Fatalf("entry %d = %v, want %v", i, buf[i], w)
		}
	}
}
