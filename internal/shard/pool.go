package shard

import "sync"

// ForEach runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines and blocks until all calls return. workers <= 0 or > n means
// one goroutine per item. It is the single worker-pool implementation
// shared by the batch query APIs (repro.ParallelQueries, repro.BatchQuery)
// and the sharded engine's per-shard workers.
//
// The pool is a work-stealing range splitter: each worker starts with a
// contiguous slice of the index space, cut by count (cache-friendly, zero
// coordination while it lasts), and, when its own range drains, steals the
// back half of a straggler's remaining range. On skewed workloads — a Zipf
// shard that runs 10× deeper than its siblings, one slow query in a
// batch — finished workers therefore converge on the straggler's range
// instead of idling, which a static split cannot do, and without paying
// the per-item channel handoff of a shared job queue on uniform workloads.
func ForEach(n, workers int, fn func(i int)) {
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
	qs := queues(n, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range qs {
		go func(self int) {
			defer wg.Done()
			q := &qs[self]
			for {
				i, ok := q.pop()
				if !ok {
					if !steal(qs, self) {
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

// queues cuts [0, n) into workers contiguous ranges whose sizes differ by
// at most one, so no worker starts empty while another holds two items.
func queues(n, workers int) []workQueue {
	qs := make([]workQueue, workers)
	for w := range qs {
		qs[w].lo, qs[w].hi = w*n/workers, (w+1)*n/workers
	}
	return qs
}

// steal moves the back half of the first non-empty victim's remaining
// range (a lone item whole) into self's drained queue and reports whether
// anything was found. Items only ever move between queues — none are
// created — so a full scan finding every queue empty means no work remains
// for self: whatever is still unfinished is owned by workers that will
// complete it.
func steal(qs []workQueue, self int) bool {
	for off := 1; off < len(qs); off++ {
		v := &qs[(self+off)%len(qs)]
		v.mu.Lock()
		avail := v.hi - v.lo
		if avail <= 0 {
			v.mu.Unlock()
			continue
		}
		lo, hi := v.hi-max(avail/2, 1), v.hi
		v.hi = lo
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
