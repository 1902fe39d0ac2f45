package shard

import (
	"math"
	"sort"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines and blocks until all calls return. workers <= 0 or > n means
// one goroutine per item. It is the single worker-pool implementation
// shared by the batch query APIs (repro.ParallelQueries, repro.BatchQuery)
// and the sharded engine's per-shard workers.
//
// The pool is a work-stealing range splitter: each worker starts with a
// contiguous slice of the index space (cache-friendly, zero coordination
// while it lasts) and, when its own range drains, steals the far half of a
// straggler's remaining range. On skewed workloads — a Zipf shard that runs
// 10× deeper than its siblings, one slow query in a batch — finished
// workers therefore converge on the straggler's range instead of idling,
// which a static split cannot do, and without paying the per-item channel
// handoff of a shared job queue on uniform workloads.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWeighted(n, workers, func(int) float64 { return 1 }, fn)
}

// ForEachWeighted is ForEach for heterogeneous items: weight(i) estimates
// item i's cost, and both the initial split and stealing balance estimated
// weight instead of index count. The initial contiguous ranges are cut at
// the weight prefix-sum's even fractions, and a thief takes the suffix
// holding about half of the victim's *remaining weight* — by-count stealing
// hands a thief half the victim's indices, which on a 16×-skewed workload
// can be almost none of its remaining work. Weights are estimates, so
// non-positive or non-finite values degrade to 1 (by-count behavior) rather
// than panicking; weight is called once per item up front.
func ForEachWeighted(n, workers int, weight func(i int) float64, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	prefix := weightPrefix(n, weight)
	cuts := weightedCuts(prefix, workers)
	qs := make([]workQueue, workers)
	for w := 0; w < workers; w++ {
		qs[w].lo, qs[w].hi = cuts[w], cuts[w+1]
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(self int) {
			defer wg.Done()
			q := &qs[self]
			for {
				i, ok := q.pop()
				if !ok {
					if !stealWeighted(qs, self, prefix) {
						return
					}
					continue
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// weightPrefix evaluates weight once per item and returns its prefix sums,
// sanitizing non-positive and non-finite estimates to 1.
func weightPrefix(n int, weight func(i int) float64) []float64 {
	prefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		w := weight(i)
		if !(w > 0) || math.IsInf(w, 1) {
			w = 1
		}
		prefix[i+1] = prefix[i] + w
	}
	return prefix
}

// weightedCuts returns the workers+1 range boundaries of the initial
// contiguous split: worker w owns [cuts[w], cuts[w+1]), with each boundary
// at the prefix position *nearest* its even fraction of the total weight
// (the last worker takes the rest). Rounding to nearest rather than down
// matters when one item outweighs a full share: flooring would leave every
// boundary before the heavy item stuck at its left edge, stacking the
// heavy item and everything after it on one worker, while nearest-rounding
// isolates it (the preceding range may come out empty; its worker then
// immediately steals).
func weightedCuts(prefix []float64, workers int) []int {
	n := len(prefix) - 1
	cuts := make([]int, workers+1)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo
		if w == workers-1 {
			hi = n
		} else {
			target := prefix[n] * float64(w+1) / float64(workers)
			for hi < n && prefix[hi+1] <= target {
				hi++
			}
			if hi < n && prefix[hi+1]-target < target-prefix[hi] {
				hi++
			}
		}
		cuts[w], cuts[w+1] = lo, hi
		lo = hi
	}
	return cuts
}

// stealWeighted moves the suffix holding about half of the first non-empty
// victim's remaining *weight* into self's drained queue (the whole lone
// item when only one remains; at least one item and at most all-but-one
// otherwise) and reports whether anything was found. Items only ever move
// between queues — none are created — so a full scan finding every queue
// empty means no work remains for self: whatever is still unfinished is
// owned by workers that will complete it.
func stealWeighted(qs []workQueue, self int, prefix []float64) bool {
	for off := 1; off < len(qs); off++ {
		v := &qs[(self+off)%len(qs)]
		v.mu.Lock()
		avail := v.hi - v.lo
		if avail <= 0 {
			v.mu.Unlock()
			continue
		}
		split := v.lo
		if avail >= 2 {
			half := (prefix[v.hi] - prefix[v.lo]) / 2
			vlo, vhi := v.lo, v.hi
			// Smallest split in [lo+1, hi-1] whose suffix weight is ≤ half
			// of the remaining weight; hi-1 when even the last item alone
			// exceeds it.
			split = vlo + 1 + sort.Search(avail-1, func(d int) bool {
				return prefix[vhi]-prefix[vlo+1+d] <= half
			})
			if split >= vhi {
				split = vhi - 1
			}
		}
		lo, hi := split, v.hi
		v.hi = split
		v.mu.Unlock()
		q := &qs[self]
		q.mu.Lock()
		q.lo, q.hi = lo, hi
		q.mu.Unlock()
		return true
	}
	return false
}

// workQueue is one worker's remaining index range [lo, hi). The owner pops
// from the front; thieves take from the back, so owner and thief contend on
// the mutex but never on the same indices.
type workQueue struct {
	mu     sync.Mutex
	lo, hi int
}

// pop takes the next index from the front of the owner's range.
func (q *workQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lo >= q.hi {
		return 0, false
	}
	i := q.lo
	q.lo++
	return i, true
}
