package shard

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

var errFake = errors.New("injected for test")

// view is a shard's published top-k with every unseen-object bound gone
// (SeenAll), so the shard's ceiling comes from outsideB and whatever part
// of items the merge leaves outside the global top-k.
func view(outsideB model.Grade, items ...core.Scored) core.CursorView {
	return core.CursorView{TopK: items, OutsideB: outsideB, SeenAll: true}
}

// item is a view entry with interval [w, b].
func item(obj model.ObjectID, w, b model.Grade) core.Scored {
	return core.Scored{Object: obj, Grade: w, Lower: w, Upper: b}
}

var negInf = model.Grade(math.Inf(-1))

// threeShardCoordinator builds a 3-shard coordinator with a full global
// top-2 (M_k = 0.2) and controlled per-shard ceilings 0.25 / 0.3 / 0.9,
// driven entirely by outsideB: every view item sits inside the global
// top-k, so no view contributes to its shard's ceiling.
func threeShardCoordinator() *nraCoordinator {
	c := newNRACoordinator(2, []int{2, 2, 2}, newDegraded(3))
	c.publish(0, view(0.25, item(1, 0.3, 0.6)))
	c.publish(1, view(0.3, item(2, 0.2, 0.5)))
	c.publish(2, view(0.9))
	return c
}

// TestPickCostAware pins the serialized scheduler's pick: the shard with
// the best ceiling-drop per unit of expected cost wins, and a dead shard is
// never picked.
func TestPickCostAware(t *testing.T) {
	// Cheap shard wins on priority: (0.3−0.2)/1 beats (0.9−0.2)/8.
	c := threeShardCoordinator()
	if got := c.schedule([]float64{1, 1, 8}, true); !slices.Equal(got, []int{1}) {
		t.Fatalf("cheap winner: got %v, want [1]", got)
	}

	// Expensive shard wins on priority: (0.9−0.2)/8 > (0.25−0.2)/1.
	c = threeShardCoordinator()
	if got := c.schedule([]float64{1, 8, 8}, true); !slices.Equal(got, []int{2}) {
		t.Fatalf("expensive winner: got %v, want [2]", got)
	}

	// A dead shard is never picked: with the priority winner dead the
	// next-best unresolved shard runs, and the wave schedule drops it too.
	c = threeShardCoordinator()
	c.deg.mark(2, 0, errFake)
	if got := c.schedule([]float64{1, 8, 8}, true); !slices.Equal(got, []int{0}) {
		t.Fatalf("dead winner skipped: got %v, want [0]", got)
	}
	if got := c.schedule(nil, false); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("wave with a dead shard: got %v, want [0 1]", got)
	}
}

// TestFinalizeReevaluatesCeilings: a dead shard's θ ceiling must come from
// the *final* views, not the state at death. Here the dead shard's only
// contribution is an outsideB bound above maxG, so finalize must cap it.
func TestFinalizeReevaluatesCeilings(t *testing.T) {
	c := threeShardCoordinator()
	c.deg.mark(2, 0, errFake)
	floor := c.finalize(model.Grade(0.7))
	if floor != 0.2 {
		t.Fatalf("θ floor = %g, want final M_k 0.2", floor)
	}
	// ceiling(2) is 0.9 from outsideB but maxG caps it at 0.7.
	if c.deg.ceil[2] != 0.7 {
		t.Fatalf("dead ceiling = %g, want capped 0.7", c.deg.ceil[2])
	}
	th, ok := c.deg.theta(floor)
	if !ok || math.Abs(th-0.7/0.2) > 1e-12 {
		t.Fatalf("theta = %g ok=%v, want %g", th, ok, 0.7/0.2)
	}
}

// assertTop checks the merged global top-k, item for item.
func assertTop(t *testing.T, c *nraCoordinator, want ...core.Scored) {
	t.Helper()
	if got, _ := c.topK(); !slices.Equal(got, want) {
		t.Fatalf("top-k %v, want %v", got, want)
	}
}

// TestMergeBreaksWTiesByBThenID: the merge ranks in the canonical order
// across views — W descending, then B descending, then ObjectID ascending
// — and restores that order inside a view whose W-ties arrive out of B
// order, as View may report them.
func TestMergeBreaksWTiesByBThenID(t *testing.T) {
	c := newNRACoordinator(3, []int{2, 2, 2}, newDegraded(3))
	c.publish(0, view(negInf, item(7, 0.5, 0.6), item(8, 0.5, 0.8))) // W-tie out of B order
	c.publish(1, view(negInf, item(3, 0.5, 0.6)))
	c.publish(2, view(negInf, item(1, 0.4, 0.9), item(2, 0.3, 0.9)))
	assertTop(t, c, item(8, 0.5, 0.8), item(3, 0.5, 0.6), item(7, 0.5, 0.6))
	if got := c.globalMk(); got != 0.5 {
		t.Fatalf("M_k = %g, want 0.5", got)
	}
	// Shard 2's items are all outside the top-k, so its ceiling is their
	// largest B.
	if got := c.ceiling(2); got != 0.9 {
		t.Fatalf("ceiling(2) = %g, want 0.9", got)
	}
}

// TestMergePushedOutMemberRaisesItsShardCeiling: a member another shard
// pushes out of the global top-k keeps its B in its own shard's ceiling,
// so a shard that paused with every item inside the top-k is unresolved
// again.
func TestMergePushedOutMemberRaisesItsShardCeiling(t *testing.T) {
	c := newNRACoordinator(2, []int{2, 2}, newDegraded(2))
	if c.publish(0, view(0.3, item(1, 0.4, 0.8), item(2, 0.3, 0.7))) {
		t.Fatal("shard 0 should pause: ceiling 0.3 ≤ M_k 0.3")
	}
	if got := c.schedule(nil, false); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unresolved = %v, want only the unpublished shard 1", got)
	}
	if c.publish(1, view(0.2, item(10, 0.6, 0.6))) {
		t.Fatal("shard 1 should pause: ceiling 0.2 ≤ M_k 0.4")
	}
	assertTop(t, c, item(10, 0.6, 0.6), item(1, 0.4, 0.8))
	if got := c.ceiling(0); got != 0.7 {
		t.Fatalf("ceiling(0) = %g, want the pushed-out member's B 0.7", got)
	}
	if got := c.schedule(nil, false); len(got) != 1 || got[0] != 0 {
		t.Fatalf("unresolved = %v, want shard 0 resumed", got)
	}
}

// TestMergeFewerThanKItems: while the views hold fewer than k items in
// total, M_k stays -Inf and every item is in the answer.
func TestMergeFewerThanKItems(t *testing.T) {
	c := newNRACoordinator(5, []int{5, 5}, newDegraded(2))
	c.publish(0, view(0.1, item(1, 0.9, 0.9), item(2, 0.8, 0.8)))
	c.publish(1, view(0.1, item(3, 0.7, 0.7), item(4, 0.6, 0.6)))
	if got := c.globalMk(); !math.IsInf(got, -1) {
		t.Fatalf("published M_k = %g, want -Inf", got)
	}
	if got := c.mk(); !math.IsInf(float64(got), -1) {
		t.Fatalf("M_k = %g, want -Inf", got)
	}
	assertTop(t, c, item(1, 0.9, 0.9), item(2, 0.8, 0.8), item(3, 0.7, 0.7), item(4, 0.6, 0.6))
	if got := c.schedule(nil, false); len(got) != 2 {
		t.Fatalf("unresolved = %v, want both shards: nothing is bounded by -Inf", got)
	}
}

// TestFinalizeReadsFinalViews: a shard that dies with every item inside
// the global top-k has a low ceiling at death, but a survivor's later
// publish pushes its member out; finalize must read the final views and
// certify that member's B.
func TestFinalizeReadsFinalViews(t *testing.T) {
	c := newNRACoordinator(1, []int{1, 1}, newDegraded(2))
	c.publish(1, view(0.2, item(5, 0.4, 0.6)))
	c.deg.mark(1, 0, errFake)
	c.publish(0, view(0.1, item(9, 0.5, 0.5)))
	floor := c.finalize(model.Grade(1))
	if floor != 0.5 {
		t.Fatalf("θ floor = %g, want final M_k 0.5", floor)
	}
	if c.deg.ceil[1] != 0.6 {
		t.Fatalf("dead ceiling = %g, want the pushed-out member's B 0.6", c.deg.ceil[1])
	}
}

// TestCoordinatorBufferBound: the coordinator's share of MaxBuffered — the
// sum over the query minus every worker's own peak — is the peak item count
// of the views, so it never exceeds Σ_s min(k, N_s), shards smaller than k
// included.
func TestCoordinatorBufferBound(t *testing.T) {
	const m = 3
	for _, n := range []int{64, 2000} {
		db, err := workload.IndependentUniform(workload.Spec{N: n, M: m, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3, 8} {
			eng, err := New(db, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 10, 20, 50} {
				for _, sched := range []Schedule{ScheduleWave, ScheduleCostAware} {
					var per []ShardStat
					res, err := eng.Query(agg.Avg(m), k, Options{
						NoRandomAccess: true,
						Schedule:       sched,
						OnShardStats:   func(st []ShardStat) { per = st },
					})
					if err != nil {
						t.Fatal(err)
					}
					coord, bound := res.Stats.MaxBuffered, 0
					for s, st := range per {
						coord -= st.Stats.MaxBuffered
						bound += min(k, eng.shards[s].N())
					}
					if coord < 1 || coord > bound {
						t.Fatalf("N=%d P=%d k=%d %s: coordinator buffered %d items, want 1..%d", n, p, k, sched, coord, bound)
					}
				}
			}
		}
	}
}

// TestUnmergedMatchesSetDifference checks the progress hook's walk against
// a plain set difference: on random canonical lists — few distinct grades,
// so ties are common, and heavy overlap between consecutive reports — it
// returns exactly the items of cur that last does not hold, in cur's order.
func TestUnmergedMatchesSetDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grade := func(obj model.ObjectID) model.Grade { return model.Grade(obj%5) / 5 }
	list := func(pool []model.ObjectID) []core.Scored {
		var out []core.Scored
		for _, obj := range pool {
			if rng.Intn(3) > 0 {
				out = append(out, core.Scored{Object: obj, Grade: grade(obj)})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Grade != out[j].Grade {
				return out[i].Grade > out[j].Grade
			}
			return out[i].Object < out[j].Object
		})
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		pool := make([]model.ObjectID, rng.Intn(30))
		for i := range pool {
			pool[i] = model.ObjectID(i)
		}
		last, cur := list(pool), list(pool)
		held := make(map[model.ObjectID]bool, len(last))
		for _, it := range last {
			held[it.Object] = true
		}
		var want []core.Scored
		for _, it := range cur {
			if !held[it.Object] {
				want = append(want, it)
			}
		}
		got := unmerged(nil, last, cur)
		if len(got) != len(want) {
			t.Fatalf("trial %d: unmerged(%v, %v) = %v, want %v", trial, last, cur, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: unmerged(%v, %v) = %v, want %v", trial, last, cur, got, want)
			}
		}
	}
}
