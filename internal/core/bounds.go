package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// This file implements the W/B bound bookkeeping shared by NRA, CA and the
// intermittent algorithm (Section 8). For an object R with known field set
// S(R):
//
//	W(R) = t(known fields, 0 for missing)        — Proposition 8.1, t(R) ≥ W(R)
//	B(R) = t(known fields, bottom xᵢ for missing) — Proposition 8.2, t(R) ≤ B(R)
//
// An unseen object has W = t(0,…,0) and B = t(x̄₁,…,x̄ₘ) = the TA threshold.
// The current top-k list T_k holds the k largest W values (ties broken by
// larger B, then smaller id); M_k is the k-th largest W. An object outside
// T_k is viable while B > M_k; the algorithms halt when k objects have been
// seen and no viable object remains outside T_k.
//
// Two engines maintain the bounds (Remark 8.7's bookkeeping question):
//
//   - rescan: every depth recomputes B for every seen object — the paper's
//     Ω(d²m) straightforward bookkeeping.
//   - lazy: B values are cached and only refreshed on demand. A cached B is
//     fresh while no bottom has moved since it was computed (the table
//     counts moves), so it always equals B at the current bottoms, as the
//     paper defines it. Retiring is sound because bottoms only decrease, so
//     B only falls, and M_k never decreases: an object that once becomes
//     non-viable stays non-viable.
//
// The canonical candidate order is (fresh B descending, K descending,
// first-seen ascending). K is fixed while an object's known-field set is:
// for agg's Min, Max, Sum and Avg it is that fold over the known grades
// alone (their smallest, largest, sum, or sum over m); for every Func
// evaluated through Apply it is W. Every object carries the order in which
// the table first learned of it, so which of several tied candidates
// drainTop returns, or which it retires first, is a property of the data
// and not of a heap's slot layout.
//
// The lazy engine keeps candidates, and cost-aware TA's open members, in
// groups by known-field set. Within one set the missing bottoms are common,
// so for the four folded kinds B is a function of K that never falls as K
// rises: under min B = min(K, smallest missing bottom) and under max
// B = max(K, largest missing bottom), both exact, and under sum and avg B is
// K plus the missing bottoms up to rounding. A group heap ordered by
// (K descending, first-seen ascending) therefore never goes stale: its top
// is its best under min and max, and under sum and avg its best is among
// the members whose K lies within δ of the top's (window). Funcs evaluated
// through Apply get no such order: their group heaps key on the cached B
// first and refresh their top until it is fresh, which finds the same best
// because a cached B bounds the fresh one from above. drainTop and openTop
// thus read one best per group, and a group whose best is not viable
// (B ≤ M_k) retires every member at once.
//
// Most candidates are objects seen once, under sorted access on one list.
// Those wait in a FIFO per list, the one-field groups: list i delivers
// grades in descending order, so along FIFO i K never rises and first-seen
// only rises, which is the canonical order for every Func.
type partial struct {
	obj    model.ObjectID
	known  uint64
	grades []model.Grade

	w   model.Grade // exact lower bound, updated on every learned field
	key model.Grade // K, the canonical order's second key; fixed while known is
	b   model.Grade // cached upper bound; fresh iff bMove ≥ table.moves
	// bMove is the table's move count when b was computed; an object with
	// every field known has b = W for good and never goes stale.
	bMove int
	// heapIdx is p's position in its group's candidate heap, or — for a
	// tracked T_k member not yet pinned — in its open heap; -1 if in
	// neither. A member is never a candidate, so one index serves both.
	heapIdx int
	seq     int32 // first-seen order within the query
	grp     int32 // the group of p's known-field set (an index into table.groups)
	// slot is p's slot in the slot index + 1, or 0 when parts files it.
	slot int32

	retired bool // proven non-viable forever (lazy engine)
	inTopK  bool
	queued  bool // waiting in the FIFO of its one known field's list
	pinned  bool // tracked T_k member with W = B: its grade is exact for good
}

// fields returns the number of p's known fields.
func (p *partial) fields() int { return bits.OnesCount64(p.known) }

// slot is one group-heap slot. It carries the member's order keys inline,
// so a sift compares slots without dereferencing members: b is the cached
// B under the lazy discipline (Funcs evaluated through Apply) and 0 under
// the static one (agg's four folded kinds), where K alone orders a group;
// key and seq are the member's K and first-seen sequence.
type slot struct {
	b   model.Grade
	key model.Grade
	seq int32
	p   *partial
}

// before is the group order: larger b first, then larger K, then earlier
// first-seen. Sequences are unique within a table, so the order is total
// and the heap's top does not depend on how its slots are laid out.
func (s slot) before(o slot) bool {
	if s.b != o.b {
		return s.b > o.b
	}
	if s.key != o.key {
		return s.key > o.key
	}
	return s.seq < o.seq
}

// ahead is the canonical candidate order on members with fresh B.
func ahead(p, q *partial) bool {
	return slot{b: p.b, key: p.key, seq: p.seq}.before(slot{b: q.b, key: q.key, seq: q.seq})
}

// groupHeap is a max-heap of one group's members in the before order. It
// applies container/heap's sift rules with before as Less.
type groupHeap []slot

// push adds s (container/heap.Push).
func (h *groupHeap) push(s slot) {
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

// remove drops the member at slot i (container/heap.Remove; Pop is
// remove(0)).
func (h *groupHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	s[i].p.heapIdx = -1
	s[i] = s[n]
	s[n] = slot{}
	*h = s[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
}

// fix restores the order after the cached B of the member at slot i
// changed (container/heap.Fix). Lazy discipline only.
func (h groupHeap) fix(i int) {
	h[i].b = h[i].p.b
	if !h.down(i) {
		h.up(i)
	}
}

// up sifts slot j toward the root while it beats its parent.
func (h groupHeap) up(j int) {
	s := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !s.before(h[i]) {
			break
		}
		h[j] = h[i]
		h[j].p.heapIdx = j
		j = i
	}
	h[j] = s
	s.p.heapIdx = j
}

// down sifts slot i0 toward the leaves while a child beats it, preferring
// the right child only when it strictly beats the left; it reports whether
// the slot moved.
func (h groupHeap) down(i0 int) bool {
	s := h[i0]
	n := len(h)
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(s) {
			break
		}
		h[i] = h[j]
		h[i].p.heapIdx = i
		i = j
	}
	h[i] = s
	s.p.heapIdx = i
	return i > i0
}

// group holds the candidates and the open members of one known-field set.
type group struct {
	mask  uint64
	cands groupHeap
	open  groupHeap
}

// candFIFO holds one list's single-field candidates in arrival order, from
// q[head] on. Entries leave lazily: a candidate that learns a second field,
// enters T_k or is retired clears its queued flag and is dropped when it
// reaches the head.
type candFIFO struct {
	q    []*partial
	head int
}

// table is the candidate bookkeeping shared by NRA, CA and Intermittent.
type table struct {
	t    agg.Func
	kind agg.Kind // which of agg's folds evaluates t; KindOther: t.Apply
	m, k int
	src  *access.Source
	lazy bool
	// static selects the group discipline: K orders each group for agg's
	// four folded kinds; groups of a Func evaluated through Apply order by
	// cached B first.
	static bool

	depth   int // sorted-access rounds (NRA's clock, behind Rounds and Depth)
	moves   int // bottom moves so far; a cached B is fresh iff computed after the last
	bottoms []model.Grade
	topk    []*partial // ≤ k entries, ordered best-first by (w, b, id)

	// Seen objects. seen counts them and is the next first-seen sequence;
	// the partial of sequence q is at(q). An id the Source maps to a slot
	// (access.Source.Slot: every list reported one arithmetic id layout)
	// is filed in the slot index, whose entry is 0 for an unseen object
	// and its sequence + 1 otherwise, in pages of slotPageSize allocated
	// on first touch. Any other id is filed in parts.
	seen  int
	pages [][]int32
	parts map[model.ObjectID]*partial

	// Groups, one per known-field set met so far; groups[0] is the empty
	// set. next[g*m+i] is the group of groups[g]'s set with list i added
	// (-1 until first needed), so learning a field moves an object between
	// groups without a lookup; byMask resolves a set on that first need.
	// Lazy engine: every seen object outside topk and not retired is in
	// exactly one of its group's cands and fifos[i] (the FIFO of its one
	// known field, for an object seen once under sorted access).
	groups []group
	next   []int32
	byMask map[uint64]int32
	fifos  []candFIFO
	walk   []int // scratch stack of best's window walk

	// Pin tracking (lazy engine, cost-aware TA): every T_k member is either
	// pinned — W = B, its exact grade in pins — or open, in its group's
	// open heap. A progress report then reads the pinned set and the best
	// open B, one per group, without refreshing every member.
	trackPins bool
	pins      TopKBuffer

	scratch []model.Grade

	// Slab allocator: partial structs and their grade vectors are carved
	// out of fixed-size chunks in sequence order, so the sorted-access hot
	// path allocates nothing per object. The chunks outlive release: the
	// next query on a pooled table carves from the chunks it already owns
	// and allocates only past the largest query the table has served.
	slabs []slab

	released bool // invariants build: the table is back in tablePool
}

// slab is one chunk of the partial allocator: partSlabSize partials and
// room for their grade vectors.
type slab struct {
	parts  []partial
	grades []model.Grade
}

const partSlabSize = 128

// slotPageSize is the number of entries in one page of the slot index
// (16 KiB of int32, small enough to stay a small-object allocation).
const slotPageSize = 4096

// tablePool recycles bound tables across queries. A released table keeps
// its slot-index pages, the map's buckets, its slab chunks and its group,
// FIFO and top-k backing arrays, so a warm query's bookkeeping allocates
// almost nothing.
var tablePool = sync.Pool{New: func() any {
	return &table{parts: make(map[model.ObjectID]*partial), byMask: make(map[uint64]int32)}
}}

// newTable takes a table from tablePool and resets it for one query. The
// owner hands it back with release once it no longer reads the table.
func newTable(src *access.Source, t agg.Func, k int, lazy bool) *table {
	tb := tablePool.Get().(*table)
	m := src.M()
	tb.t, tb.kind, tb.m, tb.k, tb.src, tb.lazy = t, agg.KindOf(t), m, k, src, lazy
	tb.static = tb.kind != agg.KindOther
	tb.depth, tb.moves, tb.released = 0, 0, false
	tb.trackPins = false
	tb.pins = TopKBuffer{k: k, items: tb.pins.items[:0]}
	tb.bottoms = resize(tb.bottoms, m)
	for i := range tb.bottoms {
		tb.bottoms[i] = 1 // x̄ᵢ = 1 before any sorted access
	}
	tb.scratch = resize(tb.scratch, m)
	if cap(tb.fifos) < m {
		tb.fifos = make([]candFIFO, m)
	}
	tb.fifos = tb.fifos[:m]
	if cap(tb.groups) == 0 {
		tb.groups = make([]group, 1, 8)
	}
	tb.groups = tb.groups[:1] // the empty set, which never holds an object
	tb.next = tb.next[:0]
	for range m {
		tb.next = append(tb.next, -1)
	}
	tb.byMask[0] = 0
	// Pages past the current length stay in the backing array, so a table
	// that served a larger N keeps them for the next one.
	np := (src.N() + slotPageSize - 1) / slotPageSize
	if cap(tb.pages) < np {
		pages := make([][]int32, np)
		copy(pages, tb.pages[:cap(tb.pages)])
		tb.pages = pages
	}
	tb.pages = tb.pages[:np]
	if invariantsEnabled {
		for i, pg := range tb.pages[:cap(tb.pages)] {
			if j := slices.IndexFunc(pg, func(q int32) bool { return q != 0 }); j >= 0 {
				invariantViolated("pooled slot index holds sequence %d at slot %d", pg[j]-1, i*slotPageSize+j)
			}
		}
	}
	return tb
}

// resize returns s with length n, reusing its backing array when it fits.
func resize(s []model.Grade, n int) []model.Grade {
	if cap(s) < n {
		return make([]model.Grade, n)
	}
	return s[:n]
}

// release empties tb and returns it to tablePool. Nothing may read tb
// afterwards: the next newTable hands its memory to another query.
func (tb *table) release() {
	if invariantsEnabled {
		if tb.released {
			invariantViolated("bound table released twice")
		}
		tb.released = true
	}
	if len(tb.parts) < tb.seen {
		// Zero only the slots this query filled, through the slots learn
		// kept.
		for q := 0; q < tb.seen; q++ {
			if s := int(tb.at(q).slot) - 1; s >= 0 {
				tb.pages[s/slotPageSize][s%slotPageSize] = 0
			}
		}
	}
	clear(tb.parts)
	clear(tb.byMask)
	tb.seen = 0
	tb.topk = tb.topk[:0]
	// Each group keeps its heaps' backing arrays for the next query that
	// reaches as many groups.
	for g := range tb.groups {
		gr := &tb.groups[g]
		clear(gr.cands)
		clear(gr.open)
		gr.cands, gr.open = gr.cands[:0], gr.open[:0]
	}
	for i := range tb.fifos {
		tb.fifos[i] = candFIFO{q: tb.fifos[i].q[:0]}
	}
	tb.src, tb.t = nil, nil // a pooled table must not keep a database alive
	tablePool.Put(tb)
}

// at returns the partial of first-seen sequence q.
func (tb *table) at(q int) *partial {
	return &tb.slabs[q/partSlabSize].parts[q%partSlabSize]
}

// get returns obj's partial, or nil if the table has not seen obj, and
// obj's slot in the slot index: -1 when the Source maps obj to no slot and
// parts files it instead. The slot's page is allocated on first touch.
func (tb *table) get(obj model.ObjectID) (*partial, int) {
	var p *partial
	slot, ok := tb.src.Slot(obj)
	if ok {
		pg := tb.pages[slot/slotPageSize]
		if pg == nil {
			pg = make([]int32, slotPageSize)
			tb.pages[slot/slotPageSize] = pg
		}
		if q := pg[slot%slotPageSize]; q != 0 {
			p = tb.at(int(q) - 1)
		}
	} else {
		p, slot = tb.parts[obj], -1
	}
	if invariantsEnabled && p != nil && p.obj != obj {
		invariantViolated("bound-table entry for object %d holds object %d", obj, p.obj)
	}
	return p, slot
}

// newPartial carves a zero-knowledge entry for obj, with the next
// first-seen sequence, out of the slabs. It sets the entry field by field:
// a composite literal would be built aside and copied in.
func (tb *table) newPartial(obj model.ObjectID) *partial {
	c, i := tb.seen/partSlabSize, tb.seen%partSlabSize
	if i == 0 {
		if c == len(tb.slabs) {
			tb.slabs = append(tb.slabs, slab{parts: make([]partial, partSlabSize)})
		}
		if s := &tb.slabs[c]; len(s.grades) < partSlabSize*tb.m {
			s.grades = make([]model.Grade, partSlabSize*tb.m)
		}
	}
	s := &tb.slabs[c]
	lo := i * tb.m
	p := &s.parts[i]
	p.obj, p.seq, p.known = obj, int32(tb.seen), 0
	p.grades = s.grades[lo : lo+tb.m : lo+tb.m]
	p.w, p.key, p.b, p.bMove = 0, 0, 0, -1
	p.retired, p.inTopK, p.queued, p.pinned = false, false, false, false
	p.grp, p.heapIdx, p.slot = 0, -1, 0
	tb.seen++
	return p
}

// groupWith returns the group of groups[g]'s known-field set with list i
// added, creating it on first need.
func (tb *table) groupWith(g int32, i int) int32 {
	at := int(g)*tb.m + i
	if n := tb.next[at]; n >= 0 {
		return n
	}
	mask := tb.groups[g].mask | uint64(1)<<uint(i)
	n, ok := tb.byMask[mask]
	if !ok {
		n = int32(len(tb.groups))
		if int(n) < cap(tb.groups) {
			tb.groups = tb.groups[:n+1]
			tb.groups[n].mask = mask
		} else {
			tb.groups = append(tb.groups, group{mask: mask})
		}
		tb.byMask[mask] = n
		for range tb.m {
			tb.next = append(tb.next, -1)
		}
	}
	tb.next[at] = n
	return n
}

// Evaluating t. For the four aggregations agg folds inline (agg.Kind),
// the table folds p's known grades and the bottoms (or 0s) straight into
// the result, performing exactly Apply's floating-point operations in
// Apply's order; every other Func gets the filled vector through Apply.
// Each W or B counts one BoundRecompute, whichever way it is evaluated.

// computeBounds evaluates W(p) (missing fields ← 0) and a fresh B(p)
// (missing fields ← current bottoms) in one walk over the fields.
func (tb *table) computeBounds(p *partial) (w, b model.Grade) {
	tb.src.CountBoundRecompute(2)
	if tb.kind == agg.KindOther {
		return tb.apply(p.known, p.grades, nil), tb.apply(p.known, p.grades, tb.bottoms)
	}
	w, b = foldBounds(tb.kind, p.known, p.grades, tb.bottoms)
	if invariantsEnabled {
		tb.checkFold(p.known, p.grades, nil, w)
		tb.checkFold(p.known, p.grades, tb.bottoms, b)
	}
	return w, b
}

// upper evaluates t over the known grades with the current bottoms in the
// missing fields: a fresh B of an object, or τ when nothing is known.
func (tb *table) upper(known uint64, grades []model.Grade) model.Grade {
	tb.src.CountBoundRecompute(1)
	if tb.kind == agg.KindOther {
		return tb.apply(known, grades, tb.bottoms)
	}
	b := foldUpper(tb.kind, known, grades, tb.bottoms)
	if invariantsEnabled {
		tb.checkFold(known, grades, tb.bottoms, b)
	}
	return b
}

// apply evaluates t through Apply on the known grades, with fill (0s when
// nil) in the missing fields.
func (tb *table) apply(known uint64, grades, fill []model.Grade) model.Grade {
	for j := range tb.scratch {
		switch {
		case known&(uint64(1)<<uint(j)) != 0:
			tb.scratch[j] = grades[j]
		case fill != nil:
			tb.scratch[j] = fill[j]
		default:
			tb.scratch[j] = 0
		}
	}
	return tb.t.Apply(tb.scratch)
}

// checkFold is the invariants build's audit of one inline fold: Apply on
// the same filled vector must return the same bits.
func (tb *table) checkFold(known uint64, grades, fill []model.Grade, got model.Grade) {
	if want := tb.apply(known, grades, fill); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		invariantViolated("%s fold over known fields %b gives %v, Apply %v", tb.t.Name(), known, got, want)
	}
}

// foldUpper is agg's inline fold of kind over the known grades, bottoms
// in the missing fields.
func foldUpper(kind agg.Kind, known uint64, grades, bottoms []model.Grade) model.Grade {
	if kind == agg.KindSum || kind == agg.KindAvg {
		var v model.Grade
		for j, x := range bottoms {
			if known&(uint64(1)<<uint(j)) != 0 {
				x = grades[j]
			}
			v += x
		}
		if kind == agg.KindAvg {
			v /= model.Grade(len(bottoms))
		}
		return v
	}
	v := bottoms[0]
	if known&1 != 0 {
		v = grades[0]
	}
	for j := 1; j < len(bottoms); j++ {
		x := bottoms[j]
		if known&(uint64(1)<<uint(j)) != 0 {
			x = grades[j]
		}
		if kind == agg.KindMin && x < v || kind == agg.KindMax && x > v {
			v = x
		}
	}
	return v
}

// foldBounds is foldUpper twice in one walk: w with 0 in the missing
// fields, b with bottoms there.
func foldBounds(kind agg.Kind, known uint64, grades, bottoms []model.Grade) (w, b model.Grade) {
	if kind == agg.KindSum || kind == agg.KindAvg {
		for j, x := range bottoms {
			var xw model.Grade
			if known&(uint64(1)<<uint(j)) != 0 {
				xw, x = grades[j], grades[j]
			}
			w += xw
			b += x
		}
		if kind == agg.KindAvg {
			w /= model.Grade(len(bottoms))
			b /= model.Grade(len(bottoms))
		}
		return w, b
	}
	b = bottoms[0]
	if known&1 != 0 {
		w, b = grades[0], grades[0]
	}
	for j := 1; j < len(bottoms); j++ {
		xw, xb := model.Grade(0), bottoms[j]
		if known&(uint64(1)<<uint(j)) != 0 {
			xw, xb = grades[j], grades[j]
		}
		if kind == agg.KindMin && xw < w || kind == agg.KindMax && xw > w {
			w = xw
		}
		if kind == agg.KindMin && xb < b || kind == agg.KindMax && xb > b {
			b = xb
		}
	}
	return w, b
}

// freshen recomputes p's cached B if a bottom moved since it was computed,
// keeping p's slot in step under the lazy discipline, and reports whether
// it did. It pins nothing; refreshB does.
func (tb *table) freshen(p *partial) bool {
	if p.bMove >= tb.moves {
		return false
	}
	p.b = tb.upper(p.known, p.grades)
	p.bMove = tb.moves
	if invariantsEnabled && !(p.w <= p.b) {
		invariantViolated("object %d has W=%v > B=%v after refresh (Propositions 8.1/8.2)", p.obj, p.w, p.b)
	}
	if !tb.static && p.heapIdx >= 0 {
		tb.heapOf(p).fix(p.heapIdx)
	}
	return true
}

// refreshB makes p's cached B fresh, pinning a tracked member whose B
// collapsed onto W.
func (tb *table) refreshB(p *partial) {
	if tb.freshen(p) && tb.trackPins && p.inTopK {
		tb.settle(p)
	}
}

// heapOf returns the heap p's slot is in: its group's open heap for a
// member, its candidate heap otherwise.
func (tb *table) heapOf(p *partial) *groupHeap {
	if p.inTopK {
		return &tb.groups[p.grp].open
	}
	return &tb.groups[p.grp].cands
}

// file puts p in its group's candidate heap, or its open heap for a member.
func (tb *table) file(p *partial) {
	s := slot{key: p.key, seq: p.seq, p: p}
	if !tb.static {
		s.b = p.b
	}
	tb.heapOf(p).push(s)
}

// admit files a member that just entered T_k, or just learned a field, as
// pinned or open. Pin tracking only.
func (tb *table) admit(p *partial) {
	if p.w == p.b {
		tb.pin(p)
		return
	}
	tb.file(p)
}

// settle re-files a member whose B was just refreshed: a B collapsed onto
// W pins it (W only rises and B only falls, so it stays pinned). Pin
// tracking only.
func (tb *table) settle(p *partial) {
	switch {
	case p.pinned:
		if invariantsEnabled && p.w != p.b {
			invariantViolated("pinned member %d has W=%v < B=%v", p.obj, p.w, p.b)
		}
	case p.w == p.b:
		tb.groups[p.grp].open.remove(p.heapIdx)
		tb.pin(p)
	}
}

// evict unfiles a member that just left T_k. Pin tracking only.
func (tb *table) evict(p *partial) {
	if !p.pinned {
		tb.groups[p.grp].open.remove(p.heapIdx)
		return
	}
	p.pinned = false
	tb.pins.remove(Scored{Object: p.obj, Grade: p.w})
}

// pin records a member's exact grade in the pinned list.
func (tb *table) pin(p *partial) {
	p.pinned = true
	tb.pins.Offer(Scored{Object: p.obj, Grade: p.w})
}

// window is δ, the width of the K window the best of a sum or avg group
// lies in. With u = 2⁻⁵³ and every grade and bottom in [0, 1], recursive
// summation of m terms errs by at most γ₍ₘ₋₁₎·m, where
// γₙ = n·u/(1−n·u) < 1.01·n·u, so under sum each of K (the known grades)
// and B (those with the missing bottoms) lies within 1.01·m(m−1)·u of its
// exact value, and the exact values differ between two members of one
// group by exactly their Ks' difference. A member whose K is below the
// top's by more than four such errors therefore has a smaller B than the
// top. Under avg the division by m divides the sum's error by m and adds
// u, so each value errs by at most 1.01·m·u. δ = 8·m²·u (sum) and 8·m·u
// (avg) cover those four errors with room for the rounding of the
// window's own floor, K − δ.
func (tb *table) window() model.Grade {
	d := 8 * model.Grade(tb.m) * 0x1p-53
	if tb.kind == agg.KindSum {
		d *= model.Grade(tb.m)
	}
	return d
}

// best returns the member of the non-empty heap h that ranks first in the
// canonical order, with a fresh B. Under the static discipline that is the
// top for min and max, and the best of the window of Ks within δ of the
// top's for sum and avg, found by a walk of the heap that prunes every
// subtree whose root is below the window (a child's K never exceeds its
// parent's). Under the lazy discipline it refreshes the top until the top
// is fresh: a cached B bounds the fresh one from above, so a fresh top
// outranks every member below it. It pins nothing.
func (tb *table) best(h *groupHeap) *partial {
	if !tb.static {
		for {
			if p := (*h)[0].p; !tb.freshen(p) {
				return p
			}
		}
	}
	top := (*h)[0].p
	tb.freshen(top)
	if tb.kind == agg.KindMin || tb.kind == agg.KindMax {
		return top
	}
	best, floor := top, top.key-tb.window()
	stack := append(tb.walk[:0], 1, 2)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i >= len(*h) {
			continue
		}
		p := (*h)[i].p
		if p.key < floor {
			continue
		}
		tb.freshen(p)
		if ahead(p, best) {
			best = p
		}
		stack = append(stack, 2*i+1, 2*i+2)
	}
	tb.walk = stack
	return best
}

// openTop returns the open member that ranks first in the canonical order,
// with a fresh B, reading one best per group; a best whose B collapsed onto
// W is pinned on the way. Nil when every member is pinned. Pin tracking
// only.
func (tb *table) openTop() *partial {
	var top *partial
	for g := range tb.groups {
		h := &tb.groups[g].open
		for len(*h) > 0 {
			p := tb.best(h)
			if p.w != p.b {
				if top == nil || ahead(p, top) {
					top = p
				}
				break
			}
			h.remove(p.heapIdx)
			tb.pin(p)
		}
	}
	return top
}

// threshold evaluates τ = t(x̄₁,…,x̄ₘ), the B value of every unseen object.
func (tb *table) threshold() model.Grade { return tb.upper(0, nil) }

// mk returns the current M_k, or -Inf while fewer than k objects are held.
func (tb *table) mk() model.Grade {
	if len(tb.topk) < tb.k {
		return model.Grade(math.Inf(-1))
	}
	return tb.topk[tb.k-1].w
}

// better reports whether a ranks strictly above b in the T_k order:
// larger W first, ties by larger (cached) B, then smaller id.
func better(a, b *partial) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	if a.b != b.b {
		return a.b > b.b
	}
	return a.obj < b.obj
}

// resortTopK restores the T_k order after a member's bounds changed.
func (tb *table) resortTopK() {
	s := tb.topk
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && better(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// learn records that obj's grade in list is g, updating W, B and the top-k
// structures. It is called for both sorted and random discoveries.
func (tb *table) learn(obj model.ObjectID, list int, g model.Grade) *partial {
	if invariantsEnabled && tb.released {
		invariantViolated("learn on a released bound table")
	}
	p, slot := tb.get(obj)
	if p == nil {
		p = tb.newPartial(obj)
		if slot >= 0 {
			tb.pages[slot/slotPageSize][slot%slotPageSize] = p.seq + 1
			p.slot = int32(slot + 1)
		} else {
			tb.parts[obj] = p
		}
	}
	bit := uint64(1) << uint(list)
	if p.known&bit != 0 {
		return p // already known; nothing changes
	}
	// A new field moves p to the group of its new known-field set.
	if p.heapIdx >= 0 {
		tb.heapOf(p).remove(p.heapIdx)
	}
	first := p.known == 0
	p.known |= bit
	p.grades[list] = g
	p.grp = tb.groupWith(p.grp, list)
	p.w, p.b = tb.computeBounds(p)
	p.bMove = tb.moves
	if p.fields() == tb.m {
		p.bMove = math.MaxInt // B = W for good
	}
	switch {
	case tb.kind == agg.KindMin:
		if first || g < p.key {
			p.key = g
		}
	case tb.kind == agg.KindMax:
		if first || g > p.key {
			p.key = g
		}
	default:
		p.key = p.w // Sum and Avg: the known grades' fold is W to the bit
	}
	if invariantsEnabled && !(p.w <= p.b) {
		invariantViolated("object %d has W=%v > B=%v (Propositions 8.1/8.2)", p.obj, p.w, p.b)
	}

	if p.retired {
		// Proven non-viable: its grade can still be recorded (above)
		// but it can never re-enter contention (W ≤ B ≤ the M_k that
		// retired it ≤ current M_k).
		return p
	}
	if p.inTopK {
		tb.resortTopK()
		switch {
		case !tb.trackPins:
		case p.pinned:
			tb.settle(p)
		default:
			tb.admit(p)
		}
		return p
	}
	// A second known field takes p out of its FIFO, wherever it goes next.
	p.queued = false
	// Try to promote p into T_k.
	if len(tb.topk) < tb.k {
		p.inTopK = true
		tb.topk = append(tb.topk, p)
		tb.resortTopK()
		if tb.trackPins {
			tb.admit(p)
		}
		return p
	}
	worst := tb.topk[tb.k-1]
	if tb.lazy && p.b <= worst.w {
		// Non-viable against M_k: retire it now, as drainTop would, so
		// an exact W = B = M_k tie never promotes it over the incumbent.
		p.retired = true
		return p
	}
	if better(p, worst) {
		p.inTopK = true
		worst.inTopK = false
		if tb.trackPins {
			tb.evict(worst)
			tb.admit(p)
		}
		tb.topk[tb.k-1] = p
		tb.resortTopK()
		if tb.lazy {
			tb.file(worst)
		}
		return p
	}
	if tb.lazy {
		if first {
			tb.enqueue(list, p)
		} else {
			tb.file(p)
		}
	}
	return p
}

// enqueue appends a first-seen candidate to the FIFO of its one known
// field's list.
func (tb *table) enqueue(list int, p *partial) {
	f := &tb.fifos[list]
	if invariantsEnabled {
		if p.known != uint64(1)<<uint(list) {
			invariantViolated("object %d enters list %d's FIFO with known fields %b", p.obj, list, p.known)
		}
		if n := len(f.q); n > 0 && p.grades[list] > f.q[n-1].grades[list] {
			invariantViolated("object %d enters list %d's FIFO at grade %v above the tail's %v", p.obj, list, p.grades[list], f.q[n-1].grades[list])
		}
	}
	p.queued = true
	f.q = append(f.q, p)
}

// observeSorted processes one sorted-access result on list i. A grade
// below the list's bottom moves it, which ages every cached B.
func (tb *table) observeSorted(i int, e model.Entry) {
	if invariantsEnabled && !(e.Grade <= tb.bottoms[i]) {
		invariantViolated("sorted list %d produced increasing grades: %v after bottom %v", i, e.Grade, tb.bottoms[i])
	}
	if e.Grade != tb.bottoms[i] {
		tb.moves++
	}
	tb.bottoms[i] = e.Grade
	tb.learn(e.Object, i, e.Grade)
}

// drainTop returns the viable candidate outside T_k that ranks first in the
// canonical order (fresh B descending, K descending, first-seen ascending),
// reading one best per group and per FIFO. A group or FIFO whose best has
// B ≤ M_k retires every member at once: none of them can beat its best,
// and B only decreases while M_k only increases. It returns nil when no
// viable candidate remains. Lazy engine only.
func (tb *table) drainTop(mk model.Grade) *partial {
	if invariantsEnabled && tb.released {
		invariantViolated("drainTop on a released bound table")
	}
	var top *partial
	for g := range tb.groups {
		h := &tb.groups[g].cands
		if len(*h) == 0 {
			continue
		}
		if c := tb.best(h); c.b > mk {
			if top == nil || ahead(c, top) {
				top = c
			}
			continue
		}
		for _, s := range *h {
			s.p.retired, s.p.heapIdx = true, -1
		}
		clear(*h)
		*h = (*h)[:0]
	}
	for i := range tb.fifos {
		f := &tb.fifos[i]
		for f.head < len(f.q) && !f.q[f.head].queued {
			f.head++
		}
		if f.head < len(f.q) {
			c := f.q[f.head]
			tb.freshen(c)
			if c.b > mk {
				if top == nil || ahead(c, top) {
					top = c
				}
				continue
			}
			for _, p := range f.q[f.head:] {
				if p.queued {
					p.retired, p.queued = true, false
				}
			}
		}
		f.q, f.head = f.q[:0], 0
	}
	return top
}

// resolveAll performs the random accesses for every missing field of p
// (one CA/Intermittent resolution, and CostAwareTA's final pinning step).
// A backend failure aborts the loop mid-object; the fields already resolved
// stay learned (bounds only tightened), and the error surfaces so the
// caller's death ceiling still covers the partially resolved object.
func (tb *table) resolveAll(p *partial) error {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			continue
		}
		g, ok, err := tb.src.Random(j, p.obj)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		tb.learn(p.obj, j, g)
	}
	return nil
}

// randomPhase performs one CA Step-2 phase (Section 8.2): resolve by random
// access every missing field of the seen, viable object with the largest B,
// or do nothing if no such object exists (footnote 15's escape clause).
func (tb *table) randomPhase() error {
	if target := tb.pickPhaseTarget(); target != nil {
		return tb.resolveAll(target)
	}
	return nil
}

// maxBOutsideRescan recomputes B for every seen object (the paper's
// straightforward bookkeeping) and returns the largest B among objects
// outside T_k, or -Inf if none. Rescan engine only.
func (tb *table) maxBOutsideRescan() model.Grade {
	maxB := model.Grade(math.Inf(-1))
	for q := 0; q < tb.seen; q++ {
		p := tb.at(q)
		p.b = tb.upper(p.known, p.grades)
		p.bMove = tb.moves
		if !p.inTopK && p.b > maxB {
			maxB = p.b
		}
	}
	// Bounds changed, so the tie-break order inside T_k may have too.
	tb.resortTopK()
	return maxB
}

// halted evaluates the Section 8.1 stopping rule: at least k objects seen,
// and no viable object — seen or unseen — outside T_k.
func (tb *table) halted() bool {
	if len(tb.topk) < tb.k {
		return false
	}
	mk := tb.mk()
	if tb.seen < tb.src.N() {
		if tb.threshold() > mk {
			return false // an unseen object is still viable
		}
	}
	if tb.lazy {
		return tb.drainTop(mk) == nil
	}
	return tb.maxBOutsideRescan() <= mk
}

// result assembles the Result from the final T_k. GradesExact holds when
// every answer interval is pinned (B = W, so Grade is the true overall
// grade) — which can happen without every field being known, e.g. under
// min once a known field ties the bound; the sharded NRA coordinator uses
// the same interval-pinned definition, so sequential and sharded runs of
// one query agree on exactness.
func (tb *table) result(rounds int) *Result {
	items := make([]Scored, len(tb.topk))
	exact := true
	for i, p := range tb.topk {
		tb.refreshB(p)
		items[i] = Scored{Object: p.obj, Grade: p.w, Lower: p.w, Upper: p.b}
		if p.w != p.b {
			exact = false
		}
	}
	return &Result{
		Items:       items,
		GradesExact: exact,
		Theta:       1,
		Rounds:      rounds,
		Stats:       tb.src.Stats(),
	}
}
