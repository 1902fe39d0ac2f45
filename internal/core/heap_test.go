package core

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// refHeap is the container/heap adapter candHeap replaced, kept as the
// reference whose layout candHeap must reproduce.
type refHeap []*partial

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].b > h[j].b }
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

// TestCandHeapMatchesContainerHeap drives candHeap and the container/heap
// reference through the same random Push/Fix/Remove/Pop sequences over a
// handful of distinct B values. Ties are where two sift rules can disagree
// while both stay valid heaps, and the order in which drainTop refreshes
// and retires tied candidates — hence every golden trace's bound-recompute
// count — follows the layout. After every operation both heaps must hold
// the same objects in the same slots, with the same heapIdx on every
// object, and every inline B must equal its candidate's.
func TestCandHeapMatchesContainerHeap(t *testing.T) {
	const objects = 48
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mine := make([]partial, objects)
		ref := make([]partial, objects)
		for i := range mine {
			mine[i] = partial{obj: model.ObjectID(i), heapIdx: -1}
			ref[i] = mine[i]
		}
		var h candHeap
		var r refHeap
		key := func() model.Grade { return model.Grade(rng.Intn(4)) / 4 }
		for step := 0; step < 3000; step++ {
			op := rng.Intn(8)
			switch {
			case op < 4 || len(h) == 0:
				j := rng.Intn(objects)
				if mine[j].heapIdx >= 0 {
					continue
				}
				b := key()
				mine[j].b, ref[j].b = b, b
				h.push(&mine[j])
				heap.Push(&r, &ref[j])
			case op < 6:
				i := rng.Intn(len(h))
				b := key()
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
				if h[i].b != h[i].p.b {
					t.Fatalf("seed %d step %d: slot %d caches B=%v, candidate has %v", seed, step, i, h[i].b, h[i].p.b)
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
