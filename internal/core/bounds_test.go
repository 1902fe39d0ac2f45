package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	if p1 != p2 || p2.w != w1 || p2.b != b1 || p2.fields() != 1 {
		t.Fatalf("relearning a known field changed state: %+v", p2)
	}
}

func TestTableWIncreasesBDecreases(t *testing.T) {
	tb, _ := tableFor(t, 1, true)
	tb.depth = 1
	p := tb.learn(2, 0, 0.8)
	tb.bottoms[0] = 0.8
	tb.moves++
	w0 := p.w
	tb.refreshB(p)
	b0 := p.b
	// Deepen: bottoms drop, then the object's second field arrives.
	tb.depth = 2
	tb.bottoms[0] = 0.5
	tb.bottoms[1] = 0.9
	tb.moves++
	tb.refreshB(p)
	if p.b > b0 {
		t.Fatalf("B rose from %v to %v after bottoms fell", b0, p.b)
	}
	tb.learn(2, 1, 0.9)
	if p.w < w0 {
		t.Fatalf("W fell from %v to %v after learning a field", w0, p.w)
	}
	if p.fields() != 2 || math.Abs(float64(p.w-p.b)) > 1e-12 {
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
	// Seen once, the loser waits in list 1's FIFO rather than a group.
	if p := lookup(tb, 2); !p.queued || p.heapIdx >= 0 || tb.fifos[1].q[tb.fifos[1].head] != p {
		t.Fatal("loser not waiting at the head of list 1's FIFO")
	}
	// Object 2 completes: W = 0.85 > 0.45 displaces object 1.
	tb.depth = 2
	tb.observeSorted(0, model.Entry{Object: 2, Grade: 0.8})
	if !lookup(tb, 2).inTopK || lookup(tb, 1).inTopK {
		t.Fatal("higher-W object failed to displace")
	}
	// The displaced object waits in the group of its one known field (list
	// 0), not in list 0's FIFO, whose order it would break.
	p1 := lookup(tb, 1)
	if g := &tb.groups[p1.grp]; g.mask != 1 || len(g.cands) != 1 || g.cands[0].p != p1 || p1.queued {
		t.Fatalf("displaced object in group %d (mask %b), queued %v; want the only candidate of list 0's group", p1.grp, tb.groups[p1.grp].mask, p1.queued)
	}
	if p2 := lookup(tb, 2); tb.groups[p2.grp].mask != 0b11 || p2.heapIdx >= 0 {
		t.Fatalf("completed member in group of mask %b at heap index %d", tb.groups[p2.grp].mask, p2.heapIdx)
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

// TestDrainTopMatchesCanonicalArgmax checks drainTop and openTop against
// the canonical order computed by brute force, on tie-heavy plateau data
// and on uniform data, under avg, min, sum, max, Median and avgAlias, at
// m = 2, 3 and 5.
// Lazy tables run random rounds of sorted access under NRA's clock (one
// depth per round of m accesses, pins untracked) or cost-aware TA's (one
// depth per access, pins tracked), with random-access learns of random
// seen objects in between. After each access or round and each batch of
// learns, drainTop and openTop must return what checkTops computes from
// scratch.
func TestDrainTopMatchesCanonicalArgmax(t *testing.T) {
	funcs := func(m int) []agg.Func {
		return []agg.Func{agg.Avg(m), agg.Min(m), agg.Sum(m), agg.Max(m), agg.Median(m), newAvgAlias(m)}
	}
	for _, m := range []int{2, 3, 5} {
		for _, levels := range []int{3, 8} {
			for seed := int64(1); seed <= 4; seed++ {
				db, err := workload.Plateau(workload.Spec{N: 120, M: m, Seed: seed}, levels)
				if err != nil {
					t.Fatal(err)
				}
				for _, tf := range funcs(m) {
					for _, k := range []int{1, 4, 15} {
						for _, perAccess := range []bool{false, true} {
							label := fmt.Sprintf("m=%d/levels=%d/seed=%d/%s/k=%d/perAccess=%v", m, levels, seed, tf.Name(), k, perAccess)
							checkTops(t, label, db, tf, k, perAccess, rand.New(rand.NewSource(seed)))
						}
					}
				}
			}
		}
		db, err := workload.IndependentUniform(workload.Spec{N: 200, M: m, Seed: int64(m)})
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range funcs(m) {
			for _, k := range []int{1, 10} {
				for _, perAccess := range []bool{false, true} {
					label := fmt.Sprintf("m=%d/uniform/%s/k=%d/perAccess=%v", m, tf.Name(), k, perAccess)
					checkTops(t, label, db, tf, k, perAccess, rand.New(rand.NewSource(int64(k))))
				}
			}
		}
	}
}

// refKey is K computed from scratch: the fold of t's kind over the known
// grades alone for agg's four folded kinds, W through Apply (filling buf)
// otherwise.
func refKey(t agg.Func, known uint64, grades, buf []model.Grade) model.Grade {
	kind := agg.KindOf(t)
	var v model.Grade
	first := true
	for j, g := range grades {
		buf[j] = 0
		if known&(uint64(1)<<uint(j)) == 0 {
			continue
		}
		buf[j] = g
		switch {
		case first || kind == agg.KindMin && g < v || kind == agg.KindMax && g > v:
			v = g
		case kind == agg.KindSum || kind == agg.KindAvg:
			v += g
		}
		first = false
	}
	switch kind {
	case agg.KindAvg:
		return v / model.Grade(len(grades))
	case agg.KindOther:
		return t.Apply(buf)
	}
	return v
}

// topsChecker is a lazy table over db with a brute force for drainTop and
// openTop that touches no cached bound: the fresh B of every object at
// the current bottoms through Apply, and K from refKey. Under cost-aware
// TA's clock (perAccess) the table tracks pins, as cost-aware TA's does.
type topsChecker struct {
	t     testing.TB
	label string
	db    *model.Database
	tf    agg.Func
	src   *access.Source
	tb    *table
	buf   []model.Grade
}

func newTopsChecker(t testing.TB, label string, db *model.Database, tf agg.Func, k int, perAccess bool) *topsChecker {
	src := access.New(db, access.AllowAll)
	tb := newTable(src, tf, k, true)
	tb.trackPins = perAccess
	return &topsChecker{t: t, label: label, db: db, tf: tf, src: src, tb: tb, buf: make([]model.Grade, db.M())}
}

// fresh is p's B at the current bottoms, through Apply.
func (c *topsChecker) fresh(p *partial) model.Grade {
	for j := range c.buf {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			c.buf[j] = p.grades[j]
		} else {
			c.buf[j] = c.tb.bottoms[j]
		}
	}
	return c.tf.Apply(c.buf)
}

// argmax returns the object among those keep accepts that ranks first by
// (fresh B descending, K descending, first-seen ascending), with its B and
// K.
func (c *topsChecker) argmax(keep func(p *partial, b model.Grade) bool) (*partial, model.Grade, model.Grade) {
	var best *partial
	var bestB, bestK model.Grade
	for q := 0; q < c.tb.seen; q++ {
		p := c.tb.at(q)
		b, key := c.fresh(p), refKey(c.tf, p.known, p.grades, c.buf)
		if keep(p, b) && (best == nil || b > bestB || b == bestB && (key > bestK || key == bestK && p.seq < best.seq)) {
			best, bestB, bestK = p, b, key
		}
	}
	return best, bestB, bestK
}

// check calls drainTop and, when pins are tracked, openTop, and compares
// them with the brute force. drainTop must return the non-retired
// non-member ranking first among those with B > M_k, with that B to the
// bit and that K; every retired object's fresh B must then be at most M_k.
// openTop must return the unpinned member ranking first among those whose
// B has not collapsed onto W, and every pinned member's fresh B must equal
// its W.
func (c *topsChecker) check(step string) {
	c.t.Helper()
	tb := c.tb
	same := func(call string, got, want *partial, b, key model.Grade) {
		c.t.Helper()
		switch {
		case got != want:
			c.t.Fatalf("%s, %s: %s returned %v, brute force %v (B %v, K %v, M_k %v)", c.label, step, call, got, want, b, key, tb.mk())
		case got != nil && (math.Float64bits(float64(got.b)) != math.Float64bits(float64(b)) || got.key != key):
			c.t.Fatalf("%s, %s: %s's object %d has B %v, K %v; brute force %v, %v", c.label, step, call, got.obj, got.b, got.key, b, key)
		}
	}
	mk := tb.mk()
	want, b, key := c.argmax(func(p *partial, b model.Grade) bool { return !p.retired && !p.inTopK && b > mk })
	same("drainTop", tb.drainTop(mk), want, b, key)
	for q := 0; q < tb.seen; q++ {
		if p := tb.at(q); p.retired && c.fresh(p) > mk {
			c.t.Fatalf("%s, %s: retired object %d has fresh B %v > M_k %v", c.label, step, p.obj, c.fresh(p), mk)
		}
	}
	if !tb.trackPins {
		return
	}
	want, b, key = c.argmax(func(p *partial, b model.Grade) bool { return p.inTopK && !p.pinned && b != p.w })
	same("openTop", tb.openTop(), want, b, key)
	for _, p := range tb.topk {
		if b := c.fresh(p); p.pinned && b != p.w {
			c.t.Fatalf("%s, %s: pinned member %d has W %v, fresh B %v", c.label, step, p.obj, p.w, b)
		}
	}
}

// sorted performs the next sorted access on list i, reporting whether the
// list had one.
func (c *topsChecker) sorted(i int) bool {
	e, ok, err := c.src.SortedNext(i)
	if err != nil {
		c.t.Fatal(err)
	}
	if ok {
		c.tb.observeSorted(i, e)
	}
	return ok
}

// learn learns the seen object of sequence q's grade on list j, as a
// random access would.
func (c *topsChecker) learn(q, j int) {
	p := c.tb.at(q)
	c.tb.learn(p.obj, j, c.db.Grades(p.obj)[j])
}

// checkTops drives a topsChecker's table through db in rounds of sorted
// access, under NRA's clock (one depth per round of m accesses) or
// cost-aware TA's (one depth per access), with up to two random learns of
// random seen objects after each round, and checks drainTop and openTop
// after every access (cost-aware TA's clock), every round and every batch
// of learns.
func checkTops(t *testing.T, label string, db *model.Database, tf agg.Func, k int, perAccess bool, rng *rand.Rand) {
	t.Helper()
	c := newTopsChecker(t, label, db, tf, k, perAccess)
	defer c.tb.release()
	m := db.M()
	for {
		if !perAccess {
			c.tb.depth++
		}
		read := false
		for i := 0; i < m; i++ {
			if !c.sorted(i) {
				continue
			}
			read = true
			if perAccess {
				c.tb.depth++
				c.check(fmt.Sprintf("access to list %d", i))
			}
		}
		if !read {
			return
		}
		c.check("round")
		for n := rng.Intn(3); n > 0; n-- {
			c.learn(rng.Intn(c.tb.seen), rng.Intn(m))
		}
		c.check("random learns")
	}
}

// TestGroupWindowCoversRoundingInversions pins the rounding window: two
// objects of one known-field set (lists 0 and 2 known, list 1 missing)
// whose grades make K order and B order disagree in floating point under
// sum and avg — the larger K sums to the smaller B once list 1's bottom is
// added in between. drainTop over the candidates and openTop over the open
// members must return the object with the larger B.
func TestGroupWindowCoversRoundingInversions(t *testing.T) {
	const bottom = 0.7
	a := []model.Grade{0.8754778118308882, 0, 0.31374751284809677}
	b := []model.Grade{0.6952953662736593, 0, 0.49392995840532555}
	db := buildDB(t, 3, map[model.ObjectID][]model.Grade{
		1: {a[0], 0.9, a[2]},
		2: {b[0], 0.9, b[2]},
		3: {0.5, 0.5, 0.5},
	})
	for _, tf := range []agg.Func{agg.Sum(3), agg.Avg(3)} {
		for _, k := range []int{1, 3} {
			tb := newTable(access.New(db, access.AllowAll), tf, k, true)
			tb.trackPins = true
			for j := 0; j < 3; j++ {
				tb.learn(3, j, 0.5)
			}
			tb.learn(1, 0, a[0])
			tb.learn(2, 0, b[0])
			tb.learn(1, 2, a[2])
			tb.learn(2, 2, b[2])
			tb.bottoms = []model.Grade{b[0], bottom, b[2]}
			tb.moves++
			p1, p2 := lookup(tb, 1), lookup(tb, 2)
			if !(p1.grp == p2.grp && p1.key > p2.key) {
				t.Fatalf("%s: objects in groups %d and %d with K %v and %v, want one group and K₁ > K₂", tf.Name(), p1.grp, p2.grp, p1.key, p2.key)
			}
			var got *partial
			if k == 1 {
				got = tb.drainTop(tb.mk())
			} else {
				got = tb.openTop()
			}
			if got != p2 || !(p2.b > p1.b) {
				t.Errorf("%s k=%d: got %v; B₁ = %v, B₂ = %v, want object 2 with the larger B", tf.Name(), k, got, p1.b, p2.b)
			}
			tb.release()
		}
	}
}

// FuzzCandidateOrder runs topsChecker on arbitrary small databases and
// access sequences. The input selects the Func (min, max, sum, avg, Median
// or avgAlias; cfg bits 0–2), NRA's clock or cost-aware TA's (bit 3),
// m ∈ {2, 3, 4}, n ≤ 12 objects, k ≤ 6, the grades (8-byte floats,
// object by object; magnitudes are taken, NaN and ±Inf read as 0, and
// grades are capped at 1) and up to 64 steps: a byte below 128 is a sorted
// access on list b mod m, and any other byte, with the next one, a random
// learn of a seen object's grade on a list. drainTop and openTop must
// match the brute force after every step. Bit 4 of cfg is ignored, so
// corpus entries that set it still decode.
func FuzzCandidateOrder(f *testing.F) {
	le := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	// A plateau: four levels over six objects, k = 2 under min, pins
	// tracked, sorted rounds with random learns in between.
	f.Add(uint8(0b1001), uint8(1), uint8(5), uint8(1), le(
		0.75, 0.5, 0.5, 0.25, 0.75, 0.75,
		0.5, 0.5, 0.25, 0.25, 0.75, 0.5,
		0.25, 0.75, 0.5, 0.5, 0.25, 0.25), []byte{0, 1, 2, 0, 1, 2, 128, 0x13, 0, 1, 2, 129, 0x21, 0, 1, 2})
	// A rounding inversion: once list 1's bottom is 0.7, objects 1 and 2
	// (lists 0 and 2 known) have K₁ > K₂ but B₁ < B₂, both viable
	// candidates behind object 0 under sum at k = 1, and both open members
	// ahead of object 0 under avg at k = 3 with pins tracked.
	a := []float64{0.8754778118308882, 0.1, 0.31374751284809677}
	b := []float64{0.6952953662736593, 0.05, 0.49392995840532555}
	f.Add(uint8(2), uint8(1), uint8(5), uint8(0), le(slices.Concat([]float64{0.9, 0.7, 0}, a, b, []float64{0.01, 0.01, 0.01, 0.01, 0.01, 0.01})...), []byte{0, 0, 0, 2, 2, 1})
	f.Add(uint8(0b1011), uint8(1), uint8(5), uint8(2), le(slices.Concat([]float64{0.01, 0.7, 0}, a, b, []float64{0.005, 0.005, 0.005, 0.005, 0.005, 0.005})...), []byte{0, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, cfg, mb, nb, kb uint8, grades, ops []byte) {
		m, n, k := 2+int(mb%3), 1+int(nb%12), 1+int(kb%6)
		perAccess := cfg&0b1000 != 0
		tf := []func(int) agg.Func{agg.Min, agg.Max, agg.Sum, agg.Avg, agg.Median, newAvgAlias}[int(cfg&0b111)%6](m)
		b := model.NewBuilder(m)
		for id := 0; id < n; id++ {
			g := make([]model.Grade, m)
			for j := range g {
				if len(grades) >= 8 {
					x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(grades)))
					grades = grades[8:]
					if !math.IsNaN(x) && !math.IsInf(x, 0) {
						g[j] = min(model.Grade(x), 1)
					}
				}
			}
			b.MustAdd(model.ObjectID(id), g...)
		}
		db := b.MustBuild()
		c := newTopsChecker(t, fmt.Sprintf("%s m=%d n=%d k=%d perAccess=%v", tf.Name(), m, n, k, perAccess), db, tf, k, perAccess)
		defer c.tb.release()
		accesses := 0
		for step := 0; step < len(ops) && step < 64; step++ {
			op := ops[step]
			switch {
			case op < 128:
				if !c.sorted(int(op) % m) {
					continue
				}
				if accesses++; perAccess || accesses%m == 1 {
					c.tb.depth++
				}
			case step+1 < len(ops) && c.tb.seen > 0:
				step++
				c.learn(int(ops[step])%c.tb.seen, int(ops[step]/16)%m)
			default:
				continue
			}
			c.check(fmt.Sprintf("step %d", step))
		}
	})
}
