package shard

import "testing"

// TestQueuesOneIndexPerWorker: with as many workers as items every worker's
// first range holds exactly one index, so a wave of shards under the
// default pool runs each shard on its own goroutine from the start.
func TestQueuesOneIndexPerWorker(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 17} {
		qs := queues(n, n)
		for w := range qs {
			if q := &qs[w]; q.lo != w || q.hi != w+1 {
				t.Fatalf("n=%d: worker %d starts with [%d, %d), want [%d, %d)", n, w, q.lo, q.hi, w, w+1)
			}
		}
	}
	// Fewer workers than items: contiguous ranges covering [0, n) whose
	// sizes differ by at most one.
	qs := queues(7, 3)
	want := [][2]int{{0, 2}, {2, 4}, {4, 7}}
	for w := range qs {
		if q := &qs[w]; q.lo != want[w][0] || q.hi != want[w][1] {
			t.Fatalf("worker %d starts with [%d, %d), want %v", w, q.lo, q.hi, want[w])
		}
	}
}

// TestStealTakesBackHalf pins the thief's target: the back half of the
// victim's remaining range, so the owner keeps popping from the front
// without meeting the thief.
func TestStealTakesBackHalf(t *testing.T) {
	for _, tc := range []struct{ lo, hi, split int }{
		{0, 16, 8}, // even: the thief takes 8 of 16
		{4, 11, 8}, // odd: the thief takes 3 of 7, the owner keeps 4
		{5, 7, 6},  // two items: one each
	} {
		qs := make([]workQueue, 2)
		qs[1].lo, qs[1].hi = tc.lo, tc.hi // victim
		if !steal(qs, 0) {
			t.Fatalf("[%d, %d): steal found no work despite a full victim queue", tc.lo, tc.hi)
		}
		if qs[1].lo != tc.lo || qs[1].hi != tc.split {
			t.Fatalf("[%d, %d): victim kept [%d, %d), want [%d, %d)", tc.lo, tc.hi, qs[1].lo, qs[1].hi, tc.lo, tc.split)
		}
		if qs[0].lo != tc.split || qs[0].hi != tc.hi {
			t.Fatalf("[%d, %d): thief got [%d, %d), want [%d, %d)", tc.lo, tc.hi, qs[0].lo, qs[0].hi, tc.split, tc.hi)
		}
	}
}

// TestStealWeightedLoneItem checks a lone remaining item moves whole: a
// half of one item rounds to nothing, which would strand single-item
// queues forever. The name is kept from the weighted steal that `steal`
// replaced; the check is the same.
func TestStealWeightedLoneItem(t *testing.T) {
	qs := make([]workQueue, 3)
	qs[2].lo, qs[2].hi = 2, 3
	if !steal(qs, 0) {
		t.Fatal("steal found no work")
	}
	if qs[2].lo != qs[2].hi {
		t.Fatalf("victim kept [%d, %d), want empty", qs[2].lo, qs[2].hi)
	}
	if qs[0].lo != 2 || qs[0].hi != 3 {
		t.Fatalf("thief got [%d, %d), want [2, 3)", qs[0].lo, qs[0].hi)
	}
	if steal(qs, 0) {
		t.Fatal("steal reported work with every other queue empty")
	}
}
