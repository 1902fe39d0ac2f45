package core

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// refHeap is a container/heap adapter in the group order (cached B
// descending, K descending, first-seen ascending), kept as the reference
// whose layout groupHeap must reproduce.
type refHeap []*partial

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].b != h[j].b {
		return h[i].b > h[j].b
	}
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *refHeap) Push(x any) { p := x.(*partial); p.heapIdx = len(*h); *h = append(*h, p) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}

// TestGroupHeapMatchesContainerHeap drives groupHeap and the
// container/heap reference through the same random Push/Fix/Remove/Pop
// sequences over a handful of distinct B and K values, so most comparisons
// fall through to K or to the first-seen sequences (a random permutation
// of the objects, as a table hands them out in arrival order). After every
// operation both heaps must hold the same objects in the same slots, with
// the same heapIdx on every object, and every inline B, K and sequence
// must equal its member's.
func TestGroupHeapMatchesContainerHeap(t *testing.T) {
	const objects = 48
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mine := make([]partial, objects)
		ref := make([]partial, objects)
		for i, seq := range rng.Perm(objects) {
			mine[i] = partial{obj: model.ObjectID(i), seq: int32(seq), heapIdx: -1}
			ref[i] = mine[i]
		}
		var h groupHeap
		var r refHeap
		grade := func() model.Grade { return model.Grade(rng.Intn(4)) / 4 }
		for step := 0; step < 3000; step++ {
			op := rng.Intn(8)
			switch {
			case op < 4 || len(h) == 0:
				j := rng.Intn(objects)
				if mine[j].heapIdx >= 0 {
					continue
				}
				b, key := grade(), grade()
				mine[j].b, ref[j].b = b, b
				mine[j].key, ref[j].key = key, key
				h.push(slot{b: b, key: key, seq: mine[j].seq, p: &mine[j]})
				heap.Push(&r, &ref[j])
			case op < 6:
				i := rng.Intn(len(h))
				b := grade()
				h[i].p.b, r[i].b = b, b
				h.fix(i)
				heap.Fix(&r, i)
			case op < 7:
				i := rng.Intn(len(h))
				h.remove(i)
				heap.Remove(&r, i)
			default:
				h.remove(0)
				heap.Pop(&r)
			}
			if len(h) != len(r) {
				t.Fatalf("seed %d step %d: %d slots, reference has %d", seed, step, len(h), len(r))
			}
			for i := range h {
				if h[i].p.obj != r[i].obj {
					t.Fatalf("seed %d step %d: slot %d holds object %d, reference %d", seed, step, i, h[i].p.obj, r[i].obj)
				}
				if h[i].b != h[i].p.b || h[i].key != h[i].p.key || h[i].seq != h[i].p.seq {
					t.Fatalf("seed %d step %d: slot %d caches B=%v K=%v seq %d, member has %v, %v and %d", seed, step, i, h[i].b, h[i].key, h[i].seq, h[i].p.b, h[i].p.key, h[i].p.seq)
				}
			}
			for j := range mine {
				if mine[j].heapIdx != ref[j].heapIdx {
					t.Fatalf("seed %d step %d: object %d heapIdx %d, reference %d", seed, step, j, mine[j].heapIdx, ref[j].heapIdx)
				}
			}
		}
	}
}

// refTopK is the scan-and-sort TopKBuffer.Offer the binary-search insert
// replaced, kept as the reference it must reproduce, with a scan-and-delete
// remove. changes counts accepted offers and removes.
type refTopK struct {
	k       int
	items   []Scored
	changes int
}

func (h *refTopK) Offer(s Scored) {
	if len(h.items) == h.k && h.k > 0 && s.Grade < h.items[h.k-1].Grade {
		return
	}
	for i := range h.items {
		if h.items[i].Object == s.Object {
			return
		}
	}
	s.Lower, s.Upper = s.Grade, s.Grade
	if len(h.items) < h.k {
		h.items = append(h.items, s)
		slices.SortFunc(h.items, compareScored)
		h.changes++
		return
	}
	last := len(h.items) - 1
	worst := h.items[last]
	if s.Grade > worst.Grade || (s.Grade == worst.Grade && s.Object < worst.Object) {
		h.items[last] = s
		slices.SortFunc(h.items, compareScored)
		h.changes++
	}
}

func (h *refTopK) remove(obj model.ObjectID) {
	h.items = slices.DeleteFunc(h.items, func(s Scored) bool { return s.Object == obj })
	h.changes++
}

// TestTopKBufferMatchesScanAndSort offers random streams to TopKBuffer and
// the scan-and-sort reference: few distinct grades, so ties at the k-th
// grade are common, and objects re-offered (with their one grade) as TA
// re-encounters them in other lists. About one step in eight removes a held
// item instead, as the bound table's pinned list does when a pinned member
// leaves the top k. After every step both must hold the same items in the
// same order, each with Lower = Upper = Grade, after the same number of
// changes.
func TestTopKBufferMatchesScanAndSort(t *testing.T) {
	for _, k := range []int{1, 5, 300} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			objects := 2*k + 10
			grade := make([]model.Grade, objects)
			for i := range grade {
				grade[i] = model.Grade(rng.Intn(8)) / 8
			}
			h := NewTopKBuffer(k)
			ref := &refTopK{k: k}
			for step := 0; step < 6*objects; step++ {
				if rng.Intn(8) == 0 && len(ref.items) > 0 {
					s := ref.items[rng.Intn(len(ref.items))]
					h.remove(Scored{Object: s.Object, Grade: s.Grade})
					ref.remove(s.Object)
				} else {
					obj := model.ObjectID(rng.Intn(objects))
					s := Scored{Object: obj, Grade: grade[obj]}
					h.Offer(s)
					ref.Offer(s)
				}
				got := h.AppendSnapshot(nil)
				if len(got) != len(ref.items) {
					t.Fatalf("k=%d seed %d step %d: %d items, reference %d", k, seed, step, len(got), len(ref.items))
				}
				for i := range got {
					if got[i] != ref.items[i] {
						t.Fatalf("k=%d seed %d step %d: item %d = %+v, reference %+v", k, seed, step, i, got[i], ref.items[i])
					}
				}
				if h.changes != ref.changes {
					t.Fatalf("k=%d seed %d step %d: %d changes, reference %d", k, seed, step, h.changes, ref.changes)
				}
			}
		}
	}
}

// TestTopKBufferOfferAllocatesNothing: accepted offers allocate nothing
// once the buffer exists. Every offer of the stream outranks everything
// held (grades rise), so each one is inserted — into a filling buffer
// first, then displacing the worst of a full one.
func TestTopKBufferOfferAllocatesNothing(t *testing.T) {
	for _, k := range []int{5, 300} {
		h := NewTopKBuffer(k)
		n := 0
		allocs := testing.AllocsPerRun(4*k, func() {
			n++
			g := model.Grade(n) / model.Grade(8*k)
			h.Offer(Scored{Object: model.ObjectID(n), Grade: g, Lower: g, Upper: g})
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocations per accepted offer, want 0", k, allocs)
		}
		if h.Len() != k || h.items[0].Object != model.ObjectID(n) {
			t.Fatalf("k=%d: the stream's offers were not all accepted", k)
		}
	}
}
