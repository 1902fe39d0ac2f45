package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// tableFor builds a table over a small fixed database for direct
// manipulation in tests.
func tableFor(t *testing.T, k int, lazy bool) (*table, *access.Source) {
	t.Helper()
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.2},
		2: {0.8, 0.9},
		3: {0.5, 0.8},
		4: {0.3, 0.4},
		5: {0.1, 0.6},
	})
	src := access.New(db, access.Policy{NoRandom: true})
	return newTable(src, agg.Avg(2), k, lazy), src
}

// lookup returns obj's partial, or nil if tb has not seen obj.
func lookup(tb *table, obj model.ObjectID) *partial {
	p, _ := tb.get(obj)
	return p
}

// seenParts returns tb's partials in first-seen order.
func seenParts(tb *table) []*partial {
	out := make([]*partial, tb.seen)
	for q := range out {
		out[q] = tb.at(q)
	}
	return out
}

func TestTableLearnIsIdempotent(t *testing.T) {
	tb, _ := tableFor(t, 1, true)
	tb.depth = 1
	p1 := tb.learn(1, 0, 0.9)
	w1, b1 := p1.w, p1.b
	p2 := tb.learn(1, 0, 0.9) // same field again
	if p1 != p2 || p2.w != w1 || p2.b != b1 || p2.nKnown != 1 {
		t.Fatalf("relearning a known field changed state: %+v", p2)
	}
}

func TestTableWIncreasesBDecreases(t *testing.T) {
	tb, _ := tableFor(t, 1, true)
	tb.depth = 1
	p := tb.learn(2, 0, 0.8)
	tb.bottoms[0] = 0.8
	w0 := p.w
	tb.refreshB(p)
	b0 := p.b
	// Deepen: bottoms drop, then the object's second field arrives.
	tb.depth = 2
	tb.bottoms[0] = 0.5
	tb.bottoms[1] = 0.9
	tb.refreshB(p)
	if p.b > b0 {
		t.Fatalf("B rose from %v to %v after bottoms fell", b0, p.b)
	}
	tb.learn(2, 1, 0.9)
	if p.w < w0 {
		t.Fatalf("W fell from %v to %v after learning a field", w0, p.w)
	}
	if p.nKnown != 2 || math.Abs(float64(p.w-p.b)) > 1e-12 {
		t.Fatalf("fully known object must have W=B, got W=%v B=%v", p.w, p.b)
	}
}

func TestTablePromotionAndDisplacement(t *testing.T) {
	tb, _ := tableFor(t, 1, true)
	tb.depth = 1
	tb.observeSorted(0, model.Entry{Object: 1, Grade: 0.9}) // W=0.45 → T_1
	if !lookup(tb, 1).inTopK {
		t.Fatal("first object not promoted")
	}
	tb.observeSorted(1, model.Entry{Object: 2, Grade: 0.9})
	// W(2)=0.45 ties W(1); B(2) = (bottom0 + 0.9)/2 = 0.9; B(1) =
	// (0.9+0.9)/2 = 0.9 — full tie, id order keeps object 1.
	if !lookup(tb, 1).inTopK || lookup(tb, 2).inTopK {
		t.Fatal("tie displaced the incumbent")
	}
	// Seen once, the loser waits in list 1's FIFO rather than the heap.
	if p := lookup(tb, 2); p.heapIdx < 0 && !p.queued {
		t.Fatal("loser not tracked as a candidate")
	}
	// Object 2 completes: W = 0.85 > 0.45 displaces object 1.
	tb.depth = 2
	tb.observeSorted(0, model.Entry{Object: 2, Grade: 0.8})
	if !lookup(tb, 2).inTopK || lookup(tb, 1).inTopK {
		t.Fatal("higher-W object failed to displace")
	}
	if lookup(tb, 1).heapIdx < 0 {
		t.Fatal("displaced object must re-enter the candidate heap")
	}
}

func TestDrainTopRetiresNonViable(t *testing.T) {
	tb, src := tableFor(t, 1, true)
	// Feed the full database.
	for d := 0; d < 5; d++ {
		tb.depth++
		for i := 0; i < 2; i++ {
			if e, ok, _ := src.SortedNext(i); ok {
				tb.observeSorted(i, e)
			}
		}
	}
	mk := tb.mk()
	if got := tb.drainTop(mk); got != nil {
		t.Fatalf("fully-scanned database still has viable candidate %d", got.obj)
	}
	// Everything outside T_1 must be retired now.
	retired := 0
	for _, p := range seenParts(tb) {
		if !p.inTopK && p.retired {
			retired++
		}
	}
	if retired != 4 {
		t.Fatalf("retired %d of 4 outsiders", retired)
	}
}

func TestMkNonDecreasing(t *testing.T) {
	tb, src := tableFor(t, 2, true)
	prev := math.Inf(-1)
	for d := 0; d < 5; d++ {
		tb.depth++
		for i := 0; i < 2; i++ {
			if e, ok, _ := src.SortedNext(i); ok {
				tb.observeSorted(i, e)
			}
		}
		if len(tb.topk) == tb.k {
			mk := float64(tb.mk())
			if mk < prev-1e-12 {
				t.Fatalf("M_k fell from %v to %v at depth %d", prev, mk, tb.depth)
			}
			prev = mk
		}
	}
}

func TestThresholdMatchesUnseenBound(t *testing.T) {
	tb, src := tableFor(t, 1, true)
	tb.depth = 1
	e0, _, _ := src.SortedNext(0)
	tb.observeSorted(0, e0)
	e1, _, _ := src.SortedNext(1)
	tb.observeSorted(1, e1)
	want := agg.Avg(2).Apply([]model.Grade{e0.Grade, e1.Grade})
	if got := tb.threshold(); got != want {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
}

func TestResultFromTableOrdersBestFirst(t *testing.T) {
	tb, src := tableFor(t, 3, true)
	for d := 0; d < 5; d++ {
		tb.depth++
		for i := 0; i < 2; i++ {
			if e, ok, _ := src.SortedNext(i); ok {
				tb.observeSorted(i, e)
			}
		}
	}
	res := tb.result(tb.depth)
	if len(res.Items) != 3 {
		t.Fatalf("%d items", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i].Grade > res.Items[i-1].Grade {
			t.Fatalf("items out of order: %v", res.Items)
		}
	}
	if !res.GradesExact {
		t.Fatal("full scan should pin every grade")
	}
	// Grades: avg of each object's pair — top three are 2 (0.85), 3
	// (0.65), 1 (0.55).
	wantObjs := []model.ObjectID{2, 3, 1}
	for i, w := range wantObjs {
		if res.Items[i].Object != w {
			t.Fatalf("rank %d is %d, want %d", i+1, res.Items[i].Object, w)
		}
	}
}

// TestCursorReleaseIsFinal pins NRACursor.Release: a second Release is a
// no-op, and any later use panics instead of reading a pooled table that
// may already serve another query.
func TestCursorReleaseIsFinal(t *testing.T) {
	_, src := tableFor(t, 1, true)
	c, err := NewNRACursor(src, agg.Avg(2), 1, LazyEngine)
	if err != nil {
		t.Fatal(err)
	}
	c.StepN(1)
	c.Release()
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Halted on a released cursor did not panic")
		}
	}()
	c.Halted()
}

// TestPooledTableServesNextQueryClean runs the same queries before and
// after tables have cycled through the pool across arities, k values and
// algorithms: every repeat must reproduce its first run exactly — items,
// intervals, θ and Stats, bound recomputes included — so no state leaks
// from one query's table into the next.
func TestPooledTableServesNextQueryClean(t *testing.T) {
	type query struct {
		alg func() Algorithm
		db  *model.Database
		tf  agg.Func
		k   int
	}
	var queries []query
	for _, m := range []int{2, 5} {
		db, err := workload.IndependentUniform(workload.Spec{N: 300, M: m, Seed: int64(60 + m)})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 7} {
			queries = append(queries,
				query{func() Algorithm { return &NRA{} }, db, agg.Median(m), k},
				query{func() Algorithm { return &CA{H: 2} }, db, agg.Avg(m), k},
				query{func() Algorithm { return &Intermittent{H: 3} }, db, agg.Min(m), k},
				query{func() Algorithm { return &CostAwareTA{} }, db, agg.Sum(m), k})
		}
	}
	run := func(q query) *Result {
		res, err := q.alg().Run(access.New(q.db, access.AllowAll), q.tf, q.k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := make([]*Result, len(queries))
	for i, q := range queries {
		first[i] = run(q)
	}
	for pass := 0; pass < 2; pass++ {
		for i := len(queries) - 1; i >= 0; i-- {
			q := queries[i]
			if got := run(q); !reflect.DeepEqual(got, first[i]) {
				t.Fatalf("%s m=%d k=%d: repeat differs\n got %+v\nwant %+v", q.alg().Name(), q.db.M(), q.k, got, first[i])
			}
		}
	}
}

// TestDrainTopMatchesCanonicalArgmax checks drainTop against the lazy
// engine's own definition, on tie-heavy plateau data under avg and min.
// Lazy tables run random rounds of sorted access, either NRA's (one depth
// per round of m accesses, so a B learned early in a round is computed
// before the round's later lists move their bottoms) or cost-aware TA's
// (one depth per access), with random-access learns of random seen
// objects in between. After each round and each batch of learns, drainTop
// must return what a brute force over every non-retired non-member picks:
// the largest B, counting the cached B when it was computed at the
// current depth and otherwise a fresh B computed without touching the
// table, ties to the earlier first-seen; nil when that B is at most M_k.
// Afterwards every retired object's fresh B must be at most M_k.
func TestDrainTopMatchesCanonicalArgmax(t *testing.T) {
	const m = 3
	for _, levels := range []int{3, 8} {
		for seed := int64(1); seed <= 12; seed++ {
			db, err := workload.Plateau(workload.Spec{N: 150, M: m, Seed: seed}, levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, tf := range []agg.Func{agg.Avg(m), agg.Min(m)} {
				for _, k := range []int{1, 4, 15} {
					for _, perAccess := range []bool{false, true} {
						label := fmt.Sprintf("levels=%d/seed=%d/%s/k=%d/perAccess=%v", levels, seed, tf.Name(), k, perAccess)
						checkDrainTop(t, label, db, tf, k, perAccess, rand.New(rand.NewSource(seed)))
					}
				}
			}
		}
	}
}

func checkDrainTop(t *testing.T, label string, db *model.Database, tf agg.Func, k int, perAccess bool, rng *rand.Rand) {
	t.Helper()
	m := db.M()
	src := access.New(db, access.AllowAll)
	tb := newTable(src, tf, k, true)
	defer tb.release()
	buf := make([]model.Grade, m)
	fresh := func(p *partial) model.Grade {
		for j := range buf {
			if p.known&(uint64(1)<<uint(j)) != 0 {
				buf[j] = p.grades[j]
			} else {
				buf[j] = tb.bottoms[j]
			}
		}
		return tf.Apply(buf)
	}
	var seen []*partial
	check := func(step string) {
		t.Helper()
		mk := tb.mk()
		var want *partial
		var wantB model.Grade
		for _, p := range seen {
			if p.retired || p.inTopK {
				continue
			}
			b := p.b
			if p.bDepth != tb.depth {
				b = fresh(p)
			}
			if b > mk && (want == nil || b > wantB || b == wantB && p.seq < want.seq) {
				want, wantB = p, b
			}
		}
		got := tb.drainTop(mk)
		switch {
		case got != want:
			t.Fatalf("%s, %s at depth %d: drainTop returned %v, brute force %v (B %v, M_k %v)", label, step, tb.depth, got, want, wantB, mk)
		case got != nil && got.b != wantB:
			t.Fatalf("%s, %s at depth %d: drainTop's object %d has B %v, brute force %v", label, step, tb.depth, got.obj, got.b, wantB)
		}
		for _, p := range seen {
			if b := fresh(p); p.retired && b > mk {
				t.Fatalf("%s, %s at depth %d: retired object %d has fresh B %v > M_k %v", label, step, tb.depth, p.obj, b, mk)
			}
		}
	}
	for {
		if !perAccess {
			tb.depth++
		}
		read := false
		for i := 0; i < m; i++ {
			e, ok, err := src.SortedNext(i)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			read = true
			if perAccess {
				tb.depth++
			}
			isNew := lookup(tb, e.Object) == nil
			tb.observeSorted(i, e)
			if isNew {
				seen = append(seen, lookup(tb, e.Object))
			}
			if perAccess {
				check("access")
			}
		}
		if !read {
			return
		}
		check("round")
		for n := rng.Intn(3); n > 0; n-- {
			p := seen[rng.Intn(len(seen))]
			j := rng.Intn(m)
			tb.learn(p.obj, j, db.Grades(p.obj)[j])
		}
		check("random learns")
	}
}
