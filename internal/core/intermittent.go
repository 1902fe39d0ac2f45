package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// Intermittent is the straw-man algorithm of Section 8.4: it performs the
// same random accesses as TA, in the same time order, but delays them so
// that a batch runs every h = ⌊cR/cS⌋ depths. Unlike CA it does not choose
// *which* object to resolve by its B value — it resolves every object in
// encounter order — and the paper shows (Figure 5) that this costs it an
// optimality ratio that grows with h. It shares NRA's bound bookkeeping
// and stopping rule, and checks the stopping rule after each resolved
// object so a batch stops as soon as the answer is known.
type Intermittent struct {
	// Costs supplies cS and cR; h is derived as ⌊cR/cS⌋ (≥ 1).
	Costs access.CostModel
	// H, when positive, overrides the derived batch period.
	H int
}

// Name implements Algorithm.
func (a *Intermittent) Name() string { return "Intermittent" }

// Run implements Algorithm.
func (a *Intermittent) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validateAccess(src, t, k, "Intermittent", true); err != nil {
		return nil, err
	}
	h := resolveH(a.H, a.Costs)
	c := newNRACursor(src, t, k, LazyEngine)
	defer c.Release()
	c.recordEncounters = true
	var queue []model.ObjectID // encounters in TA time order
	for {
		if c.StepN(1) == 0 {
			if err := c.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: Intermittent exhausted all lists without satisfying the stopping rule")
		}
		queue = append(queue, c.encounteredObjects()...)
		if c.Depth()%h == 0 {
			halt, err := a.drainQueue(c, &queue)
			if err != nil {
				return nil, err
			}
			if halt {
				return c.Result(), nil
			}
		}
		if c.Halted() {
			return c.Result(), nil
		}
	}
}

// drainQueue performs the delayed TA random accesses in encounter order,
// checking the stopping rule after each resolved object.
func (a *Intermittent) drainQueue(c *NRACursor, queue *[]model.ObjectID) (bool, error) {
	q := *queue
	for len(q) > 0 {
		obj := q[0]
		q = q[1:]
		known := c.fieldsKnown(obj)
		if known == 0 {
			return false, fmt.Errorf("core: queued object %d has no bookkeeping entry", obj)
		}
		if known < c.tb.m {
			if err := c.resolve(obj); err != nil {
				return false, err
			}
			if c.Halted() {
				*queue = q
				return true, nil
			}
		}
	}
	*queue = q[:0]
	return false, nil
}
