package core

import (
	"math"
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
//   - lazy: B values are cached and only refreshed on demand. Sound
//     because bottom values only decrease, so a cached B is always an
//     upper bound on the fresh B, and M_k never decreases, so an object
//     that once becomes non-viable stays non-viable and can be retired.
//
// Among candidates the lazy engine ranks by (B descending, first-seen
// ascending): every object carries the order in which the table first
// learned of it, so which of several equal-B candidates drainTop returns,
// or which it retires first, is a property of the data and not of a
// heap's slot layout.
//
// Most candidates are objects seen once, under sorted access on one list.
// The lazy engine keeps those in a FIFO per list instead of in the heap:
// list i delivers grades in descending order, and a candidate whose only
// known field is gᵢ has B = t(x̄ with gᵢ in place i), so along FIFO i B
// never rises and first-seen only rises. The largest candidate is
// therefore the heap's top or a FIFO head (or a FIFO tail learned in the
// current round; see drainTop), and drainTop refreshes heads instead of
// sifting every seen object through the heap.
type partial struct {
	obj    model.ObjectID
	seq    int // first-seen order within the query
	known  uint64
	nKnown int
	grades []model.Grade

	w      model.Grade // exact lower bound, updated on every learned field
	b      model.Grade // cached upper bound; fresh iff bDepth == table.depth
	bDepth int

	retired bool // proven non-viable forever (lazy engine)
	inTopK  bool
	queued  bool // waiting in the FIFO of its one known field's list
	pinned  bool // tracked T_k member with W = B: its grade is exact for good
	// heapIdx is the position in the candidate heap, or — for a tracked
	// T_k member not yet pinned — in the open-member heap; -1 if in
	// neither. A member is never a candidate, so one index serves both.
	heapIdx int
}

// candSlot is one candidate-heap slot. It carries the candidate's cached B
// and first-seen sequence inline, so a sift compares slots without
// dereferencing the candidates; the B copy equals the candidate's b
// whenever the heap is ordered (fix re-reads it after the candidate's B
// changes).
type candSlot struct {
	b   model.Grade
	seq int
	p   *partial
}

// before is the candidate order: larger cached B first, then earlier
// first-seen. Sequences are unique within a table, so the order is total
// and the heap's top does not depend on how its slots are laid out.
func (s candSlot) before(o candSlot) bool {
	return s.b > o.b || s.b == o.b && s.seq < o.seq
}

// ahead is the before order on candidates themselves.
func ahead(p, q *partial) bool {
	return candSlot{b: p.b, seq: p.seq}.before(candSlot{b: q.b, seq: q.seq})
}

// candHeap is a max-heap of candidates in the before order, keyed by cached
// (possibly stale) B. It applies container/heap's sift rules with before as
// Less.
type candHeap []candSlot

// push adds p (container/heap.Push).
func (h *candHeap) push(p *partial) {
	*h = append(*h, candSlot{b: p.b, seq: p.seq, p: p})
	h.up(len(*h) - 1)
}

// remove drops the candidate at slot i (container/heap.Remove; Pop is
// remove(0)).
func (h *candHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	s[i].p.heapIdx = -1
	s[i] = s[n]
	s[n] = candSlot{}
	*h = s[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
}

// fix restores the order after the B of the candidate at slot i changed
// (container/heap.Fix).
func (h candHeap) fix(i int) {
	h[i].b = h[i].p.b
	if !h.down(i) {
		h.up(i)
	}
}

// up sifts slot j toward the root while it beats its parent.
func (h candHeap) up(j int) {
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
func (h candHeap) down(i0 int) bool {
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

	depth    int
	bottoms  []model.Grade
	observed uint64     // invariants build: lists that produced ≥1 sorted entry
	topk     []*partial // ≤ k entries, ordered best-first by (w, b, id)

	// Seen objects. seen counts them and is the next first-seen sequence;
	// the partial of sequence q is at(q). An id the Source maps to a slot
	// (access.Source.Slot: every list reported one arithmetic id layout)
	// is filed in the slot index, whose entry is 0 for an unseen object
	// and its sequence + 1 otherwise, in pages of slotPageSize allocated
	// on first touch. Any other id is filed in parts.
	seen  int
	pages [][]int32
	parts map[model.ObjectID]*partial
	// Lazy engine: every seen object outside topk and not retired is in
	// exactly one of cands and fifos[i] (the FIFO of its one known field).
	cands candHeap
	fifos []candFIFO

	// Pin tracking (lazy engine, cost-aware TA): every T_k member is either
	// pinned — W = B, its exact grade in pins, kept in canonical order — or
	// open, in a lazy max-heap by cached B whose slots are re-fixed on every
	// change of a member's B. A progress report then reads the pinned set
	// and the largest open B without refreshing every member.
	trackPins bool
	open      candHeap
	pins      []Scored
	pinsGen   int // bumped whenever pins changes

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
// its slot-index pages, the map's buckets, its slab chunks and its heap,
// FIFO and top-k backing arrays, so a warm query's bookkeeping allocates
// almost nothing.
var tablePool = sync.Pool{New: func() any {
	return &table{parts: make(map[model.ObjectID]*partial)}
}}

// newTable takes a table from tablePool and resets it for one query. The
// owner hands it back with release once it no longer reads the table.
func newTable(src *access.Source, t agg.Func, k int, lazy bool) *table {
	tb := tablePool.Get().(*table)
	m := src.M()
	tb.t, tb.kind, tb.m, tb.k, tb.src, tb.lazy = t, agg.KindOf(t), m, k, src, lazy
	tb.depth, tb.observed, tb.released = 0, 0, false
	tb.trackPins, tb.pinsGen = false, 0
	tb.bottoms = resize(tb.bottoms, m)
	for i := range tb.bottoms {
		tb.bottoms[i] = 1 // x̄ᵢ = 1 before any sorted access
	}
	tb.scratch = resize(tb.scratch, m)
	if cap(tb.fifos) < m {
		tb.fifos = make([]candFIFO, m)
	}
	tb.fifos = tb.fifos[:m]
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
		// Zero only the slots this query filled, found by walking its
		// partials in sequence order.
		for q := 0; q < tb.seen; q++ {
			if slot, ok := tb.src.Slot(tb.at(q).obj); ok {
				tb.pages[slot/slotPageSize][slot%slotPageSize] = 0
			}
		}
	}
	clear(tb.parts)
	tb.seen = 0
	tb.topk = tb.topk[:0]
	tb.cands = tb.cands[:0]
	for i := range tb.fifos {
		tb.fifos[i] = candFIFO{q: tb.fifos[i].q[:0]}
	}
	tb.open = tb.open[:0]
	tb.pins = tb.pins[:0]
	tb.src, tb.t = nil, nil // a pooled table must not keep a database alive
	tablePool.Put(tb)
}

// at returns the partial of first-seen sequence q.
func (tb *table) at(q int) *partial {
	return &tb.slabs[q/partSlabSize].parts[q%partSlabSize]
}

// get returns obj's partial, or nil if the table has not seen obj, and the
// slot-index entry that files obj: nil when the Source maps obj to no slot
// and parts files it instead. The entry's page is allocated on first touch.
func (tb *table) get(obj model.ObjectID) (*partial, *int32) {
	var p *partial
	var at *int32
	if slot, ok := tb.src.Slot(obj); ok {
		pg := tb.pages[slot/slotPageSize]
		if pg == nil {
			pg = make([]int32, slotPageSize)
			tb.pages[slot/slotPageSize] = pg
		}
		at = &pg[slot%slotPageSize]
		if *at != 0 {
			p = tb.at(int(*at) - 1)
		}
	} else {
		p = tb.parts[obj]
	}
	if invariantsEnabled && p != nil && p.obj != obj {
		invariantViolated("bound-table entry for object %d holds object %d", obj, p.obj)
	}
	return p, at
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
	p.obj, p.seq = obj, tb.seen
	p.known, p.nKnown = 0, 0
	p.grades = s.grades[lo : lo+tb.m : lo+tb.m]
	p.w, p.b, p.bDepth = 0, 0, -1
	p.retired, p.inTopK, p.queued, p.pinned = false, false, false, false
	p.heapIdx = -1
	tb.seen++
	return p
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

// refreshB makes p's cached B fresh for the current depth.
func (tb *table) refreshB(p *partial) {
	if p.bDepth != tb.depth {
		tb.recomputeB(p)
	}
}

// recomputeB is refreshB's stale case, kept out of line so the fresh case
// inlines.
func (tb *table) recomputeB(p *partial) {
	p.b = tb.upper(p.known, p.grades)
	p.bDepth = tb.depth
	if invariantsEnabled && !(p.w <= p.b) {
		invariantViolated("object %d has W=%v > B=%v after refresh (Propositions 8.1/8.2)", p.obj, p.w, p.b)
	}
	if tb.trackPins && p.inTopK {
		tb.settle(p)
	}
}

// admit files a member that just entered T_k (with a fresh B) as pinned or
// open. Pin tracking only.
func (tb *table) admit(p *partial) {
	if p.w == p.b {
		tb.pin(p)
		return
	}
	tb.open.push(p)
}

// settle re-files a member whose bounds just changed: a B collapsed onto W
// pins it (W only rises and B only falls, so it stays pinned); otherwise
// its open-heap slot takes the new B. Pin tracking only.
func (tb *table) settle(p *partial) {
	switch {
	case p.pinned:
		if invariantsEnabled && p.w != p.b {
			invariantViolated("pinned member %d has W=%v < B=%v", p.obj, p.w, p.b)
		}
	case p.w == p.b:
		tb.open.remove(p.heapIdx)
		tb.pin(p)
	default:
		tb.open.fix(p.heapIdx)
	}
}

// evict unfiles a member that just left T_k. Pin tracking only.
func (tb *table) evict(p *partial) {
	if !p.pinned {
		tb.open.remove(p.heapIdx)
		return
	}
	p.pinned = false
	i, found := slices.BinarySearchFunc(tb.pins, pinnedItem(p), compareScored)
	if invariantsEnabled && !found {
		invariantViolated("pinned member %d missing from the pinned list", p.obj)
	}
	tb.pins = slices.Delete(tb.pins, i, i+1)
	tb.pinsGen++
}

// pin records a member's exact grade in the canonical pinned list.
func (tb *table) pin(p *partial) {
	p.pinned = true
	s := pinnedItem(p)
	i, _ := slices.BinarySearchFunc(tb.pins, s, compareScored)
	tb.pins = slices.Insert(tb.pins, i, s)
	tb.pinsGen++
}

// pinnedItem is a pinned member as an answer item.
func pinnedItem(p *partial) Scored {
	return Scored{Object: p.obj, Grade: p.w, Lower: p.w, Upper: p.w}
}

// openTop returns the open member with the largest fresh B, refreshing
// only the heap's top: cached Bs bound fresh ones from above, so a fresh
// top outranks every member below it. Tops whose B collapses onto W are
// pinned on the way. Nil when every member is pinned. Pin tracking only.
func (tb *table) openTop() *partial {
	for len(tb.open) > 0 {
		p := tb.open[0].p
		if p.bDepth == tb.depth {
			return p
		}
		tb.refreshB(p)
	}
	return nil
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
	p, at := tb.get(obj)
	if p == nil {
		p = tb.newPartial(obj)
		if at != nil {
			*at = int32(p.seq + 1)
		} else {
			tb.parts[obj] = p
		}
	}
	bit := uint64(1) << uint(list)
	if p.known&bit != 0 {
		return p // already known; nothing changes
	}
	p.known |= bit
	p.nKnown++
	p.grades[list] = g
	p.w, p.b = tb.computeBounds(p)
	p.bDepth = tb.depth
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
		if tb.trackPins {
			tb.settle(p)
		}
		return p
	}
	// A second known field takes p out of its FIFO, wherever it goes next.
	p.queued = false
	// Try to promote p into T_k.
	if len(tb.topk) < tb.k {
		if p.heapIdx >= 0 {
			tb.cands.remove(p.heapIdx)
		}
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
		if p.heapIdx >= 0 {
			tb.cands.remove(p.heapIdx)
		}
		return p
	}
	if better(p, worst) {
		if p.heapIdx >= 0 {
			tb.cands.remove(p.heapIdx)
		}
		p.inTopK = true
		worst.inTopK = false
		if tb.trackPins {
			tb.evict(worst)
			tb.admit(p)
		}
		tb.topk[tb.k-1] = p
		tb.resortTopK()
		if tb.lazy {
			tb.cands.push(worst)
		}
		return p
	}
	if tb.lazy {
		switch {
		case p.heapIdx >= 0:
			tb.cands.fix(p.heapIdx)
		case p.nKnown == 1:
			tb.enqueue(list, p)
		default:
			tb.cands.push(p)
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

// observeSorted processes one sorted-access result on list i.
func (tb *table) observeSorted(i int, e model.Entry) {
	if invariantsEnabled {
		if !(tb.observed&(uint64(1)<<uint(i)) == 0 || e.Grade <= tb.bottoms[i]) {
			invariantViolated("sorted list %d produced increasing grades: %v after bottom %v", i, e.Grade, tb.bottoms[i])
		}
		tb.observed |= uint64(1) << uint(i)
	}
	tb.bottoms[i] = e.Grade
	tb.learn(e.Object, i, e.Grade)
}

// drainTop returns the viable candidate outside T_k that ranks first by
// (fresh B descending, first-seen ascending), retiring every candidate it
// finds with fresh B ≤ M_k along the way (sound: B only decreases, M_k
// only increases). It returns nil when no viable candidate remains. A B
// computed at the current depth counts as fresh, including one learned
// earlier in the current round. Lazy engine only.
func (tb *table) drainTop(mk model.Grade) *partial {
	if invariantsEnabled && tb.released {
		invariantViolated("drainTop on a released bound table")
	}
	var best *partial
	for len(tb.cands) > 0 {
		c := tb.cands[0].p
		if c.retired || c.inTopK {
			tb.cands.remove(0)
			continue
		}
		if c.bDepth == tb.depth {
			if c.b > mk {
				best = c
				break
			}
			c.retired = true
			tb.cands.remove(0)
			continue
		}
		c.b = tb.upper(c.known, c.grades)
		c.bDepth = tb.depth
		tb.cands.fix(0)
	}
	for i := range tb.fifos {
		f := &tb.fifos[i]
		for f.head < len(f.q) {
			c := f.q[f.head]
			if c.queued {
				tb.refreshB(c)
				if c.b > mk {
					break
				}
				c.retired, c.queued = true, false
			}
			f.head++
		}
		if f.head == len(f.q) {
			f.q, f.head = f.q[:0], 0
			continue
		}
		if c := f.q[f.head]; best == nil || ahead(c, best) {
			best = c
		}
		// Entries behind the head have lower grades and later sequences,
		// so their fresh Bs rank below the head's. The exception is a
		// tail learned in the current round: its B, computed before the
		// round's later lists lowered their bottoms, counts as fresh as
		// it stands and may exceed the refreshed head's.
		if c := f.q[len(f.q)-1]; c.queued && c.bDepth == tb.depth && c.b > mk && ahead(c, best) {
			best = c
		}
	}
	return best
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
		p.bDepth = tb.depth
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
