package core

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// NRACursor is a resumable, step-based handle on the sorted-access loop and
// the W/B bound bookkeeping shared by NRA, CA and Intermittent (Section 8).
// StepN(1) performs one parallel sorted-access round; Halted evaluates the
// Section 8.1 stopping rule at the current depth; View exposes the interval
// evidence the run has accumulated.
//
// The crucial property — the reason this exists as a cursor rather than a
// closed Run loop — is that Halted is advisory, not terminal: a caller may
// keep calling StepN *past the local halting point*, which keeps performing
// sorted access and therefore keeps tightening every [W, B] interval. The
// sharded no-random-access engine depends on this: a shard's local top-k can
// separate (local halt) while the global intervals across shards have not
// yet separated at rank k, and the coordinator must then push the shard
// deeper until they do. Once every list is exhausted StepN becomes a no-op
// returning 0, and every bound is pinned (B = W for all seen objects).
type NRACursor struct {
	src *access.Source
	t   agg.Func
	k   int
	tb  *table

	exhausted bool
	err       error    // sticky backend failure; StepN returns 0 once set
	viewItems []Scored // reusable backing for View().TopK
	// encountered holds the objects seen during the latest StepN call,
	// recorded only when recordEncounters is set (Intermittent's cursor).
	recordEncounters bool
	encountered      []model.ObjectID

	stepBuf    []model.Entry // reusable batch buffer (m × budget entries)
	stepCounts []int         // reusable per-list batch counts
}

// CursorView is the interval evidence a cursor has accumulated at its
// current depth: the local top-k with [W, B] grade intervals (Propositions
// 8.1/8.2), the threshold τ bounding any unseen object, and the largest B
// among viable seen objects outside the top-k. Threshold and OutsideB
// together are the cursor's "B-ceiling": no object outside TopK — seen or
// unseen — can have an overall grade above max(Threshold, OutsideB).
type CursorView struct {
	// TopK is the current top-k (≤ k entries early on), ordered by
	// (W descending, B descending, ObjectID ascending); each item carries
	// Lower = W and Upper = B. The slice is backed by a per-cursor buffer
	// that the next View call reuses: consume it (the sharded coordinator
	// merges it under lock) or copy it, but do not retain it across calls.
	TopK []Scored
	// Threshold is τ = t(x̄₁,…,x̄ₘ), the best possible grade of an unseen
	// object; meaningful only while SeenAll is false.
	Threshold model.Grade
	// OutsideB is the largest fresh B among viable seen objects outside
	// TopK, or -Inf when none remains.
	OutsideB model.Grade
	// SeenAll reports whether every object of the source has been seen
	// under sorted access (Threshold then bounds nothing).
	SeenAll bool
	// Depth is the number of sorted-access rounds performed.
	Depth int
}

// NewNRACursor validates the query and opens a cursor at depth 0. The
// source must permit sorted access on every list (random access is never
// used by StepN; CA and Intermittent layer their random phases on top).
func NewNRACursor(src *access.Source, t agg.Func, k int, engine Engine) (*NRACursor, error) {
	if err := validateAccess(src, t, k, "NRA", false); err != nil {
		return nil, err
	}
	return newNRACursor(src, t, k, engine), nil
}

// newNRACursor opens a cursor on a query its caller has validated.
func newNRACursor(src *access.Source, t agg.Func, k int, engine Engine) *NRACursor {
	return &NRACursor{src: src, t: t, k: k, tb: newTable(src, t, k, engine == LazyEngine)}
}

// StepN performs up to budget parallel sorted-access rounds in one call and
// returns the number of rounds it applied; StepN(1) is one round, one entry
// from every non-exhausted list. Each list's next entries are fetched with
// a single batched sorted access, then applied to the bound table round by
// round in (round, list) order — exactly the observation sequence budget
// single rounds would produce, so every interval, threshold and Halted
// answer is identical; only the per-round call and accounting overhead is
// amortized. A return below budget means the lists ran out mid-call; 0
// means every list is exhausted (nothing was consumed; all grades are
// known and every interval is pinned) or the cursor failed. A backend
// failure stops the fill: no further list is read, the entries already
// delivered are still applied (bounds only tighten), the call returns 0
// and Err reports the failure. Buffer occupancy is reported once per call;
// encounteredObjects, when recorded, accumulates across all applied rounds.
func (c *NRACursor) StepN(budget int) int {
	if c.exhausted || c.err != nil || budget <= 0 {
		return 0
	}
	m := c.tb.m
	if cap(c.stepBuf) < m*budget {
		c.stepBuf = make([]model.Entry, m*budget)
	}
	if cap(c.stepCounts) < m {
		c.stepCounts = make([]int, m)
	}
	counts := c.stepCounts[:m]
	clear(counts)
	rounds := 0
	for i := 0; i < m; i++ {
		n, err := c.src.SortedNextN(i, c.stepBuf[i*budget:(i+1)*budget])
		counts[i] = n
		if n > rounds {
			rounds = n
		}
		if err != nil {
			// Apply the delivered prefixes below, then go sticky-dead: the
			// cursor's view stays consistent and callers read the failure
			// from Err.
			c.err = err
			break
		}
	}
	if rounds == 0 {
		if c.err == nil {
			c.exhausted = true
		}
		return 0
	}
	c.encountered = c.encountered[:0]
	for r := 0; r < rounds; r++ {
		c.tb.depth++
		for i := 0; i < m; i++ {
			if r >= counts[i] {
				continue
			}
			e := c.stepBuf[i*budget+r]
			c.tb.observeSorted(i, e)
			if c.recordEncounters {
				c.encountered = append(c.encountered, e.Object)
			}
		}
	}
	c.src.ReportBuffer(c.tb.seen)
	if c.err != nil {
		return 0
	}
	if rounds < budget {
		c.exhausted = true
	}
	return rounds
}

// Err returns the sticky backend failure that stopped the cursor, if any.
// A cursor with a non-nil Err is not exhausted — its view and bounds remain
// valid as of the failure — but StepN refuses to advance it.
func (c *NRACursor) Err() error { return c.err }

// Halted evaluates the Section 8.1 stopping rule at the current depth: at
// least k objects seen and no viable object — seen or unseen — outside the
// current top-k. A true result does not close the cursor; StepN may still
// be called to tighten intervals further.
func (c *NRACursor) Halted() bool { return c.tb.halted() }

// Exhausted reports whether every list has been fully consumed.
func (c *NRACursor) Exhausted() bool { return c.exhausted }

// Depth returns the number of completed sorted-access rounds.
func (c *NRACursor) Depth() int { return c.tb.depth }

// StepCost returns the declared middleware cost of one more round — the sum
// of the source's per-backend sorted-access costs over all lists. A
// latency-aware scheduler weighs a shard's resume against this: with
// heterogeneous backends, pushing a cheap shard one round deeper can buy
// the same bound-tightening for a fraction of a slow subsystem's charge.
func (c *NRACursor) StepCost() float64 { return c.src.SortedRoundCost() }

// Threshold returns τ, the best possible grade of an unseen object.
func (c *NRACursor) Threshold() model.Grade { return c.tb.threshold() }

// LocalKthW returns the cursor's k-th largest W, or -Inf while fewer than k
// objects are held — the local evidence that can raise a global bound. O(1);
// batched publish policies poll it every round without building a View.
func (c *NRACursor) LocalKthW() model.Grade { return c.tb.mk() }

// SeenAll reports whether every object of the source has been seen under
// sorted access (the threshold then bounds nothing).
func (c *NRACursor) SeenAll() bool { return c.tb.seen >= c.src.N() }

// OutsideB returns the largest fresh B among viable seen objects outside the
// local top-k, or -Inf when none remains — the same value View reports,
// without assembling the rest of the view. Like View, computing it retires
// lazily-discovered non-viable candidates, which is sound (B only falls and
// M_k only rises).
func (c *NRACursor) OutsideB() model.Grade {
	if c.tb.lazy {
		if cand := c.tb.drainTop(c.tb.mk()); cand != nil {
			return cand.b
		}
		return model.Grade(math.Inf(-1))
	}
	return c.tb.maxBOutsideRescan()
}

// View assembles the current interval evidence. Top-k B values are
// refreshed against the current bottoms; OutsideB is the fresh maximum
// outside the top-k, one read per group of candidates (computing it
// retires lazily-discovered non-viable candidates, which is sound: B only
// falls and M_k only rises).
func (c *NRACursor) View() CursorView {
	tb := c.tb
	items := c.viewItems[:0]
	for _, p := range tb.topk {
		tb.refreshB(p)
		items = append(items, Scored{Object: p.obj, Grade: p.w, Lower: p.w, Upper: p.b})
	}
	c.viewItems = items
	outside := c.OutsideB()
	return CursorView{
		//lint:sharedslice documented contract: the view buffer is reused; callers copy before the next StepN
		TopK:      items,
		Threshold: tb.threshold(),
		OutsideB:  outside,
		SeenAll:   tb.seen >= c.src.N(),
		Depth:     tb.depth,
	}
}

// Result assembles a Result from the current top-k (normally called once
// Halted reports true, or when a caller stops a run early).
func (c *NRACursor) Result() *Result { return c.tb.result(c.tb.depth) }

// Release returns the cursor's bound table to a pool shared by every query,
// so the next cursor reuses its memory instead of allocating its own. Call
// it once the cursor's last Result and View have been consumed. A second
// Release is a no-op; any other use of a released cursor panics rather
// than read state that may already belong to another query.
func (c *NRACursor) Release() {
	if c.tb != nil {
		c.tb.release()
		c.tb = nil
	}
}

// encounteredObjects returns the objects seen during the latest StepN call
// in (round, list) order (Intermittent queues these for its delayed random
// phase); it is empty unless recordEncounters is set. The slice is reused
// by the next StepN.
func (c *NRACursor) encounteredObjects() []model.ObjectID { return c.encountered }

// randomPhase performs one CA Step-2 phase (Section 8.2); see
// table.randomPhase. A backend failure goes sticky, like a failed StepN.
func (c *NRACursor) randomPhase() error {
	if c.err != nil {
		return c.err
	}
	if err := c.tb.randomPhase(); err != nil {
		c.err = err
		return err
	}
	return nil
}

// resolve resolves all missing fields of a previously seen object by random
// access (Intermittent's delayed TA accesses). It fails if the object has
// never been seen under sorted access.
func (c *NRACursor) resolve(obj model.ObjectID) error {
	p, _ := c.tb.get(obj)
	if p == nil {
		return fmt.Errorf("core: queued object %d has no bookkeeping entry", obj)
	}
	if err := c.tb.resolveAll(p); err != nil {
		c.err = err
		return err
	}
	return nil
}

// fieldsKnown reports how many of obj's fields are known (0 if never seen).
func (c *NRACursor) fieldsKnown(obj model.ObjectID) int {
	if p, _ := c.tb.get(obj); p != nil {
		return p.fields()
	}
	return 0
}
