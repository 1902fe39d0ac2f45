package shard_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestForEachCoversEveryIndexOnce checks the work-stealing pool's basic
// contract across pool shapes: every index in [0, n) runs exactly once.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 1}, {7, 3}, {64, 4}, {64, 64}, {64, 100},
		{1000, 8}, {37, 5},
	} {
		counts := make([]int32, tc.n)
		shard.ForEach(tc.n, tc.workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestForEachStealsFromBlockedOwner pins the load-balancing property the
// work-stealing pool exists for. With 4 workers over 16 indices the initial
// split gives worker 0 the contiguous range [0, 4); the function blocks on
// index 0 — the first index worker 0 pops — until indices 1..3 have run.
// Under a static split those indices belong to the blocked worker and would
// never run; only stealing by the other workers can release the gate, so
// completing (rather than hitting the timeout) proves work moved between
// queues.
func TestForEachStealsFromBlockedOwner(t *testing.T) {
	const n, workers = 16, 4
	var remaining int32 = 3 // indices 1..3 release the gate
	gate := make(chan struct{})
	var timedOut int32
	counts := make([]int32, n)
	shard.ForEach(n, workers, func(i int) {
		switch {
		case i == 0:
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
				atomic.StoreInt32(&timedOut, 1)
			}
		case i <= 3:
			if atomic.AddInt32(&remaining, -1) == 0 {
				close(gate)
			}
		}
		atomic.AddInt32(&counts[i], 1)
	})
	if atomic.LoadInt32(&timedOut) == 1 {
		t.Fatal("indices 1..3 were never stolen from the blocked owner")
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
