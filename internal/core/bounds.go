package core

import (
	"container/heap"
	"math"

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
type partial struct {
	obj    model.ObjectID
	known  uint64
	nKnown int
	grades []model.Grade

	w      model.Grade // exact lower bound, updated on every learned field
	b      model.Grade // cached upper bound; fresh iff bDepth == table.depth
	bDepth int

	retired bool // proven non-viable forever (lazy engine)
	inTopK  bool
	heapIdx int // position in the candidate heap, -1 if absent
}

// candHeap is a max-heap of candidates ordered by cached (possibly stale) B.
type candHeap []*partial

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].b > h[j].b }
func (h *candHeap) Push(x interface{}) { p := x.(*partial); p.heapIdx = len(*h); *h = append(*h, p) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}
func (h candHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// table is the candidate bookkeeping shared by NRA, CA and Intermittent.
type table struct {
	t    agg.Func
	m, k int
	src  *access.Source
	lazy bool

	depth    int
	bottoms  []model.Grade
	observed uint64 // invariants build: lists that produced ≥1 sorted entry
	parts    map[model.ObjectID]*partial
	topk     []*partial // ≤ k entries, ordered best-first by (w, b, id)
	cands    candHeap   // lazy engine: seen objects outside topk, not retired

	scratch []model.Grade

	// Bump allocators: partial structs and their grade slices are carved
	// out of slab allocations so the sorted-access hot path costs ~2 heap
	// allocations per partSlabSize objects instead of 2 per object.
	partSlab  []partial
	gradeSlab []model.Grade
}

const partSlabSize = 128

func newTable(src *access.Source, t agg.Func, k int, lazy bool) *table {
	m := src.M()
	tb := &table{
		t: t, m: m, k: k, src: src, lazy: lazy,
		bottoms: make([]model.Grade, m),
		parts:   make(map[model.ObjectID]*partial),
		scratch: make([]model.Grade, m),
	}
	for i := range tb.bottoms {
		tb.bottoms[i] = 1 // x̄ᵢ = 1 before any sorted access
	}
	return tb
}

// computeW evaluates W(p) (missing fields ← 0).
func (tb *table) computeW(p *partial) model.Grade {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = p.grades[j]
		} else {
			tb.scratch[j] = 0
		}
	}
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.scratch)
}

// computeB evaluates a fresh B(p) (missing fields ← current bottoms).
func (tb *table) computeB(p *partial) model.Grade {
	for j := 0; j < tb.m; j++ {
		if p.known&(uint64(1)<<uint(j)) != 0 {
			tb.scratch[j] = p.grades[j]
		} else {
			tb.scratch[j] = tb.bottoms[j]
		}
	}
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.scratch)
}

// refreshB makes p's cached B fresh for the current depth.
func (tb *table) refreshB(p *partial) {
	if p.bDepth != tb.depth {
		p.b = tb.computeB(p)
		p.bDepth = tb.depth
		if invariantsEnabled {
			assertInvariant(p.w <= p.b, "object %d has W=%v > B=%v after refresh (Propositions 8.1/8.2)", p.obj, p.w, p.b)
		}
	}
}

// threshold evaluates τ = t(x̄₁,…,x̄ₘ), the B value of every unseen object.
func (tb *table) threshold() model.Grade {
	tb.src.CountBoundRecompute(1)
	return tb.t.Apply(tb.bottoms)
}

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
	p := tb.parts[obj]
	if p == nil {
		if len(tb.partSlab) == 0 {
			tb.partSlab = make([]partial, partSlabSize)
		}
		if len(tb.gradeSlab) < tb.m {
			tb.gradeSlab = make([]model.Grade, partSlabSize*tb.m)
		}
		p = &tb.partSlab[0]
		tb.partSlab = tb.partSlab[1:]
		*p = partial{
			obj:     obj,
			grades:  tb.gradeSlab[:tb.m:tb.m],
			heapIdx: -1,
			bDepth:  -1,
		}
		tb.gradeSlab = tb.gradeSlab[tb.m:]
		tb.parts[obj] = p
	}
	bit := uint64(1) << uint(list)
	if p.known&bit != 0 {
		return p // already known; nothing changes
	}
	p.known |= bit
	p.nKnown++
	p.grades[list] = g
	p.w = tb.computeW(p)
	p.b = tb.computeB(p)
	p.bDepth = tb.depth
	if invariantsEnabled {
		assertInvariant(p.w <= p.b, "object %d has W=%v > B=%v (Propositions 8.1/8.2)", p.obj, p.w, p.b)
	}

	if p.retired {
		// Proven non-viable: its grade can still be recorded (above)
		// but it can never re-enter contention (W ≤ B ≤ the M_k that
		// retired it ≤ current M_k).
		return p
	}
	if p.inTopK {
		tb.resortTopK()
		return p
	}
	// Try to promote p into T_k.
	if len(tb.topk) < tb.k {
		if p.heapIdx >= 0 {
			heap.Remove(&tb.cands, p.heapIdx)
		}
		p.inTopK = true
		tb.topk = append(tb.topk, p)
		tb.resortTopK()
		return p
	}
	worst := tb.topk[tb.k-1]
	if better(p, worst) {
		if p.heapIdx >= 0 {
			heap.Remove(&tb.cands, p.heapIdx)
		}
		p.inTopK = true
		worst.inTopK = false
		tb.topk[tb.k-1] = p
		tb.resortTopK()
		if tb.lazy {
			heap.Push(&tb.cands, worst)
		}
		return p
	}
	if tb.lazy {
		if p.heapIdx >= 0 {
			heap.Fix(&tb.cands, p.heapIdx)
		} else {
			heap.Push(&tb.cands, p)
		}
	}
	return p
}

// observeSorted processes one sorted-access result on list i.
func (tb *table) observeSorted(i int, e model.Entry) {
	if invariantsEnabled {
		assertInvariant(tb.observed&(uint64(1)<<uint(i)) == 0 || e.Grade <= tb.bottoms[i],
			"sorted list %d produced increasing grades: %v after bottom %v", i, e.Grade, tb.bottoms[i])
		tb.observed |= uint64(1) << uint(i)
	}
	tb.bottoms[i] = e.Grade
	tb.learn(e.Object, i, e.Grade)
}

// drainTop returns the viable candidate outside T_k with the largest fresh
// B, retiring every candidate whose fresh B ≤ M_k along the way (sound: B
// only decreases, M_k only increases). It returns nil when no viable
// candidate remains. Lazy engine only.
func (tb *table) drainTop(mk model.Grade) *partial {
	for tb.cands.Len() > 0 {
		c := tb.cands[0]
		if c.retired || c.inTopK {
			heap.Pop(&tb.cands)
			continue
		}
		if c.bDepth == tb.depth {
			if c.b > mk {
				return c
			}
			c.retired = true
			heap.Pop(&tb.cands)
			continue
		}
		c.b = tb.computeB(c)
		c.bDepth = tb.depth
		heap.Fix(&tb.cands, 0)
	}
	return nil
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
	//lint:orderfree every part is visited exactly once and maxB is a pure reduction
	for _, p := range tb.parts {
		p.b = tb.computeB(p)
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
	if len(tb.parts) < tb.src.N() {
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
