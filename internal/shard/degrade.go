// Failure tolerance for the sharded engine: worker panic recovery, the
// per-query record of permanently lost shards, and the θ-degradation
// arithmetic of Section 6.2 — a query that loses shards past their retry
// budget returns the surviving shards' merged answer together with the
// best θ the surviving evidence certifies, instead of an error.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
)

// runShard runs one worker's loop, converting a panic into an error so a
// single shard's failure — a backend whose infallible path surfaced an
// injected fault, or a genuine engine bug — can never take down the whole
// process. Backend panics keep their error identity (and so reach the
// degradation path); anything else surfaces as an opaque worker error.
func runShard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, access.ErrBackend) {
				err = e
				return
			}
			//lint:notbadquery a non-backend worker panic is an engine bug surfaced as an opaque error
			err = fmt.Errorf("worker panicked: %v", r)
		}
	}()
	return f()
}

// shardFatal is the dead-or-fail rule both engine modes route a worker's
// error through. A backend lost past its retry budget — an error wrapping
// access.ErrBackend while ctx is still live — kills only shard s, and the
// answer degrades to a θ-approximation over the survivors: shardFatal
// returns nil. Anything else, ctx expiry mid-access included, fails the
// whole query with the returned error.
func shardFatal(ctx context.Context, s int, err error) error {
	if errors.Is(err, access.ErrBackend) && ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("shard: shard %d: %w", s, err)
}

// degraded records the shards a query lost permanently: which, each one's
// certified death ceiling (an upper bound on the overall grade of every
// object the shard did not merge before dying), and the first underlying
// failure for error reporting.
type degraded struct {
	mu       sync.Mutex
	dead     []bool
	ceil     []model.Grade
	count    int
	firstErr error
}

func newDegraded(p int) *degraded {
	return &degraded{dead: make([]bool, p), ceil: make([]model.Grade, p)}
}

// mark records shard s as permanently lost with the given ceiling.
func (d *degraded) mark(s int, ceil model.Grade, err error) {
	d.mu.Lock()
	if !d.dead[s] {
		d.dead[s] = true
		d.count++
	}
	d.ceil[s] = ceil
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.mu.Unlock()
}

// theta computes the best θ the surviving shards certify: every non-answer
// object of a dead shard s has overall grade at most min(ceil[s], cap), and
// every answer has grade at least floor (the merged global kth grade in TA
// mode, the global M_k in the no-random-access mode), so
// θ = max(1, max_s ceil[s] / floor) satisfies θ·t(y) ≥ t(z) for every
// answer y and non-answer z — Section 6.2's θ-approximation. ok is false
// when no finite θ exists (floor not positive, or fewer than k answers).
func (d *degraded) theta(floor float64, cap model.Grade) (float64, bool) {
	if floor <= 0 || math.IsInf(floor, -1) {
		return 0, false
	}
	th := 1.0
	d.mu.Lock()
	for s, isDead := range d.dead {
		if !isDead {
			continue
		}
		c := d.ceil[s]
		if c > cap {
			c = cap
		}
		if v := float64(c) / floor; v > th {
			th = v
		}
	}
	d.mu.Unlock()
	if math.IsInf(th, 1) || math.IsNaN(th) {
		return 0, false
	}
	return th, true
}

// degradeResult applies the degradation contract to a merged result: the
// answer keeps the surviving shards' merged items, Theta reports the
// certified guarantee, GradesExact drops to false to flag the degraded
// answer, and MinTheta rejects a guarantee weaker than the caller's floor.
func (d *degraded) degradeResult(res *core.Result, opts Options, t agg.Func, floor float64, p int) (*core.Result, error) {
	th, ok := d.theta(floor, agg.TopValue(t))
	if !ok {
		return nil, fmt.Errorf("shard: %d of %d shards lost and the survivors certify no finite θ: %w", d.count, p, d.firstErr)
	}
	if opts.MinTheta >= 1 && th > opts.MinTheta*(1+1e-12) {
		return nil, fmt.Errorf("shard: degraded answer certifies only θ = %.6g, weaker than MinTheta %g: %w", th, opts.MinTheta, d.firstErr)
	}
	res.Theta = th
	res.GradesExact = false
	res.Stats.DeadShards = int64(d.count)
	return res, nil
}
