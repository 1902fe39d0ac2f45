package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// Scored is one object in a top-k answer. For algorithms that determine
// exact overall grades (TA, FA, Naive, MaxTopK) Grade is the overall grade
// and Lower = Upper = Grade. For NRA (and CA runs that halt with partial
// information) Grade is the proven lower bound W and [Lower, Upper] is the
// final [W, B] interval containing the true grade (Propositions 8.1/8.2).
type Scored struct {
	Object model.ObjectID
	Grade  model.Grade
	Lower  model.Grade
	Upper  model.Grade
}

// Result is a completed top-k run.
type Result struct {
	// Items holds the k answers, best first.
	Items []Scored
	// GradesExact reports whether Items[i].Grade is the true overall
	// grade for every item. NRA guarantees only the top-k *objects*
	// (Section 8.1 weakens the output requirement); TA/FA also return
	// the grades.
	GradesExact bool
	// Theta is the approximation guarantee: the output is a
	// θ-approximation of the true top k (Section 6.2). Theta = 1 means
	// the output is exact.
	Theta float64
	// Rounds is the number of parallel sorted-access rounds performed
	// (the paper's depth d), when the algorithm is round-structured.
	Rounds int
	// Stats is the access accounting for the run.
	Stats access.Stats
}

// Objects returns the answer objects, best first.
func (r *Result) Objects() []model.ObjectID {
	ids := make([]model.ObjectID, len(r.Items))
	for i, it := range r.Items {
		ids[i] = it.Object
	}
	return ids
}

// Cost returns the run's middleware cost under cm.
func (r *Result) Cost(cm access.CostModel) float64 { return cm.Cost(r.Stats) }

// GradeMultiset returns the sorted (descending) overall grades of the
// answer. Because the paper breaks ties arbitrarily, two correct algorithms
// may return different object sets but must return the same grade multiset;
// tests compare results through this.
func (r *Result) GradeMultiset() []model.Grade {
	gs := make([]model.Grade, len(r.Items))
	for i, it := range r.Items {
		gs[i] = it.Grade
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] > gs[j] })
	return gs
}

// String renders a compact human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	for i, it := range r.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if r.GradesExact {
			fmt.Fprintf(&b, "%d:%.4g", it.Object, it.Grade)
		} else {
			fmt.Fprintf(&b, "%d:[%.4g,%.4g]", it.Object, it.Lower, it.Upper)
		}
	}
	return fmt.Sprintf("top%d{%s} s=%d r=%d", len(r.Items), b.String(), r.Stats.Sorted, r.Stats.Random)
}

// TrueGradeMultiset recomputes the answer items' true overall grades from
// the full database (the ground-truth view algorithms never get), sorted
// descending. Tests and experiments compare answers through this when ties
// make object sets ambiguous (the paper breaks ties arbitrarily): two
// correct top-k answers must have equal true-grade multisets even when
// their object sets differ.
func TrueGradeMultiset(db *model.Database, t agg.Func, items []Scored) []model.Grade {
	out := make([]model.Grade, len(items))
	for i, it := range items {
		out[i] = t.Apply(db.Grades(it.Object))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// compareScored is the canonical answer order: grade descending, ties by
// ascending object id for determinism.
func compareScored(a, b Scored) int {
	switch {
	case a.Grade > b.Grade:
		return -1
	case a.Grade < b.Grade:
		return 1
	case a.Object < b.Object:
		return -1
	case a.Object > b.Object:
		return 1
	}
	return 0
}

// sortScoredDesc orders items canonically (compareScored).
func sortScoredDesc(items []Scored) { slices.SortFunc(items, compareScored) }

// TopKBuffer is a fixed-capacity collection of the k best (grade, object)
// pairs seen so far; ties are broken toward smaller object ids (arbitrary
// per the paper, deterministic for tests). It is TA's entire object buffer:
// Theorem 4.2's bounded-buffer property is visible in that nothing else
// about previously seen objects is retained. The sharded engine reuses it
// as the coordinator's global heap, so shard merges follow exactly the
// same canonical (grade descending, ObjectID ascending) order.
//
// An offer costs one binary search plus, when it is accepted, a shift of
// the items it outranks; it never allocates once the buffer holds its
// k-item backing array.
type TopKBuffer struct {
	k       int
	items   []Scored // kept in canonical order; k is small (constant)
	changes int      // accepted offers so far (TA's Progress.TopKChanges)
}

// NewTopKBuffer returns an empty buffer retaining the k best candidates.
func NewTopKBuffer(k int) *TopKBuffer {
	return &TopKBuffer{k: k, items: make([]Scored, 0, k)}
}

// Offer inserts the candidate if it belongs in the top k. An object already
// present is left untouched rather than duplicated (TA can see the same
// object in several lists; callers must re-offer an object only with the
// same grade, which is what lets the binary search find it).
func (h *TopKBuffer) Offer(s Scored) {
	full := len(h.items) == h.k
	// Fast path: a full buffer rejects anything strictly below the current
	// kth grade without searching. An already-present object can never take
	// this branch — every held item's grade is ≥ the worst's.
	if full && (h.k == 0 || s.Grade < h.items[h.k-1].Grade) {
		return
	}
	i, found := slices.BinarySearchFunc(h.items, s, compareScored)
	if found {
		return // same object re-encountered with its (identical) grade
	}
	if invariantsEnabled {
		for _, it := range h.items {
			if it.Object == s.Object {
				invariantViolated("object %d offered at grade %v while held at %v", s.Object, s.Grade, it.Grade)
			}
		}
	}
	if !full {
		h.items = slices.Insert(h.items, i, s)
		h.changes++
		return
	}
	if i < h.k {
		// Drop the worst and shift the items s outranks down one slot.
		copy(h.items[i+1:], h.items[i:h.k-1])
		h.items[i] = s
		h.changes++
	}
}

// Full reports whether k items are held.
func (h *TopKBuffer) Full() bool { return len(h.items) == h.k }

// Len returns the number of items currently held (≤ k).
func (h *TopKBuffer) Len() int { return len(h.items) }

// Kth returns the grade of the worst retained item; call only when full.
func (h *TopKBuffer) Kth() model.Grade { return h.items[len(h.items)-1].Grade }

// Exact returns a copy of the current items, best first, as answers whose
// grades are exact: Lower = Upper = Grade.
func (h *TopKBuffer) Exact() []Scored {
	out := make([]Scored, len(h.items))
	for i, it := range h.items {
		it.Lower, it.Upper = it.Grade, it.Grade
		out[i] = it
	}
	return out
}

// AppendSnapshot appends the current items, best first, to dst and returns
// the extended slice, for hot paths that reuse a scratch buffer (pass
// dst[:0] to overwrite it).
func (h *TopKBuffer) AppendSnapshot(dst []Scored) []Scored {
	return append(dst, h.items...)
}
