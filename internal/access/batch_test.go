package access

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// batchTestDB builds a deterministic mid-sized database whose grade
// pattern produces plenty of ties and no structure a batch reader could
// exploit by accident.
func batchTestDB(t *testing.T, n, m int) *model.Database {
	t.Helper()
	b := model.NewBuilder(m)
	for i := 0; i < n; i++ {
		grades := make([]model.Grade, m)
		for j := 0; j < m; j++ {
			grades[j] = model.Grade((i*31+j*17)%97) / 96
		}
		b.MustAdd(model.ObjectID(i+1), grades...)
	}
	return b.MustBuild()
}

// batchStack builds one fresh instance of a named backend stack over db.
// Fresh instances matter: Cache and SharedScan carry cross-run state, so
// the single-step and batched runs must never share one.
func batchStack(t *testing.T, db *model.Database, kind string) (*Source, func() CacheStats) {
	t.Helper()
	raw := make([]ListSource, db.M())
	for i := range raw {
		raw[i] = db.List(i)
	}
	noCache := func() CacheStats { return CacheStats{} }
	switch kind {
	case "plain":
		return FromLists(raw, AllowAll), noCache
	case "remote":
		lists := make([]ListSource, len(raw))
		for i := range raw {
			lists[i] = NewRemote(raw[i], CostModel{CS: 2, CR: 5}, Latency{})
		}
		return FromLists(lists, AllowAll), noCache
	case "cache":
		// A small page size and page bound force page boundaries and
		// evictions inside the scripted read pattern.
		c := NewCache(CacheConfig{PageSize: 8, Pages: 4})
		return FromLists(WrapLists(c, raw), AllowAll), c.Stats
	case "tiered":
		// Tiers tighter than the script's working set: every page churns
		// through hot overflow, TinyLFU admission and cold-hit promotion,
		// so the equivalence below pins the whole tier state machine.
		c := NewCache(CacheConfig{PageSize: 4, Pages: 2, ColdPages: 3, ColdHitCost: 0.25})
		return FromLists(WrapLists(c, raw), AllowAll), c.Stats
	case "flatcache":
		// The cold tier disabled: the pre-tiering single-LRU behavior.
		c := NewCache(CacheConfig{PageSize: 8, Pages: 4, ColdPages: -1})
		return FromLists(WrapLists(c, raw), AllowAll), c.Stats
	case "sharedscan":
		ss := NewSharedScan(raw)
		src, release := ss.Attach(AllowAll)
		t.Cleanup(release)
		return src, noCache
	case "misdeclared":
		lists := make([]ListSource, len(raw))
		for i := range raw {
			lists[i] = NewMisdeclared(NewRemote(raw[i], CostModel{CS: 3, CR: 7}, Latency{}), CostModel{CS: 1, CR: 1})
		}
		return FromLists(lists, AllowAll), noCache
	case "faulty-misdeclared", "faulty-cache", "flaky-misdeclared", "flaky-cache":
		// Faulty over a list that prices its accesses, so its reads take
		// the priced path. The faulty kinds inject nothing; the flaky ones
		// fail a fifth of the accesses transiently under armed retries, so
		// a fault splits a batch and the retry resumes it.
		lists := make([]ListSource, len(raw))
		stats := noCache
		if strings.HasSuffix(kind, "-cache") {
			c := NewCache(CacheConfig{PageSize: 8, Pages: 4})
			lists, stats = WrapLists(c, raw), c.Stats
		} else {
			for i := range raw {
				lists[i] = NewMisdeclared(NewRemote(raw[i], CostModel{CS: 3, CR: 7}, Latency{}), UnitCosts)
			}
		}
		for i := range lists {
			var plan FaultPlan
			if strings.HasPrefix(kind, "flaky-") {
				plan = FaultPlan{Seed: uint64(11 + i), Rate: 0.2}
			}
			lists[i] = NewFaulty(lists[i], plan)
		}
		src := FromLists(lists, AllowAll)
		src.SetRetry(Retry{MaxAttempts: 64, Budget: 1 << 20, Base: time.Nanosecond, Max: time.Nanosecond})
		return src, stats
	default:
		t.Fatalf("unknown stack %q", kind)
		return nil, nil
	}
}

// batchOp is one scripted access: read up to want sorted entries from list,
// then (when probe != 0) randomly probe object probe on list probeList.
type batchOp struct {
	list      int
	want      int
	probe     model.ObjectID
	probeList int
}

// batchScript returns a deterministic access schedule that interleaves
// lists, crosses page boundaries, over-reads past exhaustion and mixes in
// random probes — the shapes StepN generates in production.
func batchScript(n, m int) []batchOp {
	sizes := []int{1, 2, 3, 5, 8, 13, 64}
	var ops []batchOp
	for r := 0; len(ops) == 0 || r < 3*n; r++ {
		op := batchOp{list: r % m, want: sizes[r%len(sizes)]}
		if r%3 == 1 {
			op.probe = model.ObjectID(r%n + 1)
			op.probeList = (r + 1) % m
		}
		ops = append(ops, op)
	}
	return ops
}

// runSingleStep executes the script with one SortedNext — a batch of one —
// per entry: the reference semantics SortedNextN must reproduce for every
// batch size. It mirrors SortedNextN's
// contract exactly: a read that starts exhausted makes one failed probe; a
// read that exhausts mid-way stops without a failed probe.
func runSingleStep(src *Source, ops []batchOp) [][]model.Entry {
	perList := make([][]model.Entry, src.M())
	for _, op := range ops {
		if op.want > 0 && src.Exhausted(op.list) {
			src.SortedNext(op.list)
		} else {
			for got := 0; got < op.want && !src.Exhausted(op.list); got++ {
				e, ok, _ := src.SortedNext(op.list)
				if !ok {
					break
				}
				perList[op.list] = append(perList[op.list], e)
			}
		}
		if op.probe != 0 {
			src.Random(op.probeList, op.probe)
		}
	}
	return perList
}

// runBatched executes the same script through SortedNextN.
func runBatched(src *Source, ops []batchOp) [][]model.Entry {
	perList := make([][]model.Entry, src.M())
	buf := make([]model.Entry, 64)
	for _, op := range ops {
		n, _ := src.SortedNextN(op.list, buf[:op.want])
		perList[op.list] = append(perList[op.list], buf[:n]...)
		if op.probe != 0 {
			src.Random(op.probeList, op.probe)
		}
	}
	return perList
}

// TestSortedNextNMatchesSingleStep is the batch-access equivalence
// property: across every backend stack, a scripted run through SortedNextN
// must observe byte-identical entry sequences, identical Stats (counts and
// charged costs), identical traces and — for the cache — identical hit,
// miss and eviction accounting as the same script through single-step
// SortedNext. This is what makes batching a pure overhead optimization:
// nothing about the paper's access-cost accounting may move.
func TestSortedNextNMatchesSingleStep(t *testing.T) {
	const n, m = 40, 3
	db := batchTestDB(t, n, m)
	ops := batchScript(n, m)
	for _, kind := range []string{"plain", "remote", "cache", "tiered", "flatcache", "sharedscan", "misdeclared",
		"faulty-misdeclared", "faulty-cache", "flaky-misdeclared", "flaky-cache"} {
		t.Run(kind, func(t *testing.T) {
			single, singleCache := batchStack(t, db, kind)
			batched, batchedCache := batchStack(t, db, kind)
			singleTrace := single.StartTrace()
			batchedTrace := batched.StartTrace()

			wantEntries := runSingleStep(single, ops)
			gotEntries := runBatched(batched, ops)

			if !reflect.DeepEqual(wantEntries, gotEntries) {
				t.Fatalf("entry sequences diverged:\nsingle: %v\nbatch:  %v", wantEntries, gotEntries)
			}
			if ws, gs := single.Stats(), batched.Stats(); !reflect.DeepEqual(ws, gs) {
				t.Fatalf("stats diverged:\nsingle: %+v\nbatch:  %+v", ws, gs)
			}
			if ws, gs := singleCache(), batchedCache(); !reflect.DeepEqual(ws, gs) {
				t.Fatalf("cache stats diverged:\nsingle: %+v\nbatch:  %+v", ws, gs)
			}
			if !reflect.DeepEqual(singleTrace.Entries, batchedTrace.Entries) {
				t.Fatalf("traces diverged: single has %d entries, batch %d", len(singleTrace.Entries), len(batchedTrace.Entries))
			}
			if strings.HasPrefix(kind, "flaky-") && batched.Stats().Faults == 0 {
				t.Fatal("the transient plan injected no fault")
			}
			if kind == "plain" {
				st := batched.Stats()
				if st.Charged() != float64(st.Accesses()) {
					t.Fatalf("unit-cost invariant broken: Charged() = %g, Accesses() = %d", st.Charged(), st.Accesses())
				}
			}
		})
	}
}

// TestSortedNextNBatchSizeInvariance checks that the split of one logical
// scan into batches is unobservable: draining a list in batches of 1, 3, 7
// and 64 yields identical entries, Stats and cache accounting for every
// batch size, over plain lists and over Faulty above a pricing list.
func TestSortedNextNBatchSizeInvariance(t *testing.T) {
	const n, m = 40, 2
	db := batchTestDB(t, n, m)
	for _, kind := range []string{"plain", "faulty-misdeclared", "faulty-cache", "flaky-misdeclared", "flaky-cache"} {
		t.Run(kind, func(t *testing.T) {
			var want []model.Entry
			var wantStats Stats
			var wantCache CacheStats
			for si, size := range []int{1, 3, 7, 64} {
				src, cache := batchStack(t, db, kind)
				buf := make([]model.Entry, size)
				var got []model.Entry
				for {
					c, _ := src.SortedNextN(0, buf)
					got = append(got, buf[:c]...)
					if c < size {
						break
					}
				}
				if si == 0 {
					want, wantStats, wantCache = got, src.Stats(), cache()
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("batch size %d changed the observed entries", size)
				}
				// The final probe count differs by batching (a size-1 drain
				// ends with one failed single probe, as does any batch
				// drain), so the full Stats must be equal outright.
				if st := src.Stats(); !reflect.DeepEqual(wantStats, st) {
					t.Fatalf("batch size %d changed stats: %+v vs %+v", size, wantStats, st)
				}
				if cs := cache(); !reflect.DeepEqual(wantCache, cs) {
					t.Fatalf("batch size %d changed cache stats: %+v vs %+v", size, wantCache, cs)
				}
			}
			if len(want) != n {
				t.Fatalf("drained %d entries, want %d", len(want), n)
			}
		})
	}
}
