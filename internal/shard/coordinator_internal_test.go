package shard

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

var errFake = errors.New("injected for test")

// threeShardCoordinator builds a 3-shard coordinator with a full global
// top-2 (M_k = 0.2) and controlled per-shard ceilings 0.25 / 0.3 / 0.9,
// driven entirely by outsideB (seenAll suppresses the τ term, and both
// table rows sit inside the global top-k so ShardCeiling contributes
// nothing).
func threeShardCoordinator() *nraCoordinator {
	c := newNRACoordinator(3, 2, []int{2, 2, 2})
	c.tbl.Upsert(1, 0, 0.3, 0.6)
	c.tbl.Upsert(2, 1, 0.2, 0.5)
	for s := range c.seenAll {
		c.seenAll[s] = true
	}
	c.outsideB[0] = 0.25
	c.outsideB[1] = 0.3
	c.outsideB[2] = 0.9
	return c
}

// TestPickCostAware pins the serialized scheduler's pick: the shard with
// the best ceiling-drop per unit of expected cost wins, and a dead shard is
// never picked.
func TestPickCostAware(t *testing.T) {
	// Cheap shard wins on priority: (0.3−0.2)/1 beats (0.9−0.2)/8.
	c := threeShardCoordinator()
	if got := c.pickCostAware([]float64{1, 1, 8}); got != 1 {
		t.Fatalf("cheap winner: got %d, want 1", got)
	}

	// Expensive shard wins on priority: (0.9−0.2)/8 > (0.25−0.2)/1.
	c = threeShardCoordinator()
	if got := c.pickCostAware([]float64{1, 8, 8}); got != 2 {
		t.Fatalf("expensive winner: got %d, want 2", got)
	}

	// A dead shard is never picked: with the priority winner dead the
	// next-best unresolved shard runs.
	c = threeShardCoordinator()
	c.dead[2] = true
	if got := c.pickCostAware([]float64{1, 8, 8}); got != 0 {
		t.Fatalf("dead winner skipped: got %d, want 0", got)
	}
}

// TestFinalizeReevaluatesCeilings: a dead shard's θ ceiling must come from
// the *final* table state, not the state at death. Here the dead shard's
// only contribution is an outsideB bound that later rises above maxG, so
// finalize must cap it.
func TestFinalizeReevaluatesCeilings(t *testing.T) {
	c := threeShardCoordinator()
	c.markDead(2)
	deg := newDegraded(3)
	deg.mark(2, 0, errFake)
	floor := c.finalize(deg, model.Grade(0.7))
	if floor != 0.2 {
		t.Fatalf("θ floor = %g, want final M_k 0.2", floor)
	}
	// ceiling(2) is 0.9 from outsideB but maxG caps it at 0.7.
	if deg.ceil[2] != 0.7 {
		t.Fatalf("dead ceiling = %g, want capped 0.7", deg.ceil[2])
	}
	th, ok := deg.theta(floor, model.Grade(0.7))
	if !ok || math.Abs(th-0.7/0.2) > 1e-12 {
		t.Fatalf("theta = %g ok=%v, want %g", th, ok, 0.7/0.2)
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
