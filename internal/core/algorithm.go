// Package core implements the aggregation algorithms of Fagin, Lotem and
// Naor, "Optimal Aggregation Algorithms for Middleware" (PODS 2001):
//
//   - TA, the threshold algorithm (Section 4), with its approximation
//     variant TAθ (Section 6.2), restricted-sorted-access variant TAz
//     (Section 7), early stopping, and pluggable sorted-access schedulers.
//   - NRA, the no-random-access algorithm (Section 8.1), with two
//     bookkeeping engines (cf. Remark 8.7).
//   - CA, the combined algorithm (Section 8.2), with the footnote-15
//     escape clause.
//   - Baselines: Naive, FA (Fagin's algorithm, Section 3), MaxTopK (the
//     mk-sorted-access algorithm for t = max), and the Intermittent
//     algorithm (Section 8.4's straw-man).
//   - Scripted oracle opponents used by the instance-optimality
//     experiments (wild guesses and shortest proofs).
//
// All algorithms observe data exclusively through access.Source, so the
// recorded sorted/random access counts are exactly the paper's middleware
// cost components.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
)

// MaxLists is the largest supported number of lists; field sets are kept as
// 64-bit masks. The paper treats m as a small constant (the aggregation
// function's arity), so this is not a practical restriction.
const MaxLists = 64

// Algorithm is a top-k aggregation algorithm in the paper's model.
type Algorithm interface {
	// Name identifies the algorithm, e.g. "TA" or "NRA".
	Name() string
	// Run finds the top k objects of src under t. Implementations must
	// access data only through src, so src.Stats() reflects the run's
	// true middleware cost.
	Run(src *access.Source, t agg.Func, k int) (*Result, error)
}

// ErrBadQuery wraps all query validation failures.
var ErrBadQuery = errors.New("core: invalid query")

// ValidateQueryShape performs the query checks shared by every execution
// path — sequential runs, batch pre-validation and the sharded engine —
// over a database with m lists and n objects: aggregation present with
// matching arity, a supported list count, and 1 ≤ k ≤ n (the paper
// assumes throughout that the database has at least k objects). All
// failures wrap ErrBadQuery.
func ValidateQueryShape(m, n int, t agg.Func, k int) error {
	if t == nil {
		return fmt.Errorf("%w: nil aggregation function", ErrBadQuery)
	}
	if t.Arity() != m {
		return fmt.Errorf("%w: aggregation %s has arity %d but database has %d lists",
			ErrBadQuery, t.Name(), t.Arity(), m)
	}
	if m > MaxLists {
		return fmt.Errorf("%w: %d lists exceeds the supported maximum of %d", ErrBadQuery, m, MaxLists)
	}
	if k < 1 {
		return fmt.Errorf("%w: k must be at least 1, got %d", ErrBadQuery, k)
	}
	if k > n {
		return fmt.Errorf("%w: k=%d exceeds database size N=%d", ErrBadQuery, k, n)
	}
	return nil
}

// NormalizeCosts applies the zero-value default (unit costs) and rejects
// cost models no execution path can price: cS must be positive, cR
// non-negative, and both finite. Shared by the sequential and sharded
// paths, so both accept exactly the same cost models.
func NormalizeCosts(c access.CostModel) (access.CostModel, error) {
	if c.CS == 0 && c.CR == 0 {
		return access.UnitCosts, nil
	}
	if !(c.CS > 0) || !(c.CR >= 0) || math.IsInf(c.CS, 1) || math.IsInf(c.CR, 1) {
		return c, fmt.Errorf("%w: invalid cost model %+v", ErrBadQuery, c)
	}
	return c, nil
}

// validate performs the shared query checks against a live source.
func validate(src *access.Source, t agg.Func, k int) error {
	if src == nil {
		return fmt.Errorf("%w: nil source", ErrBadQuery)
	}
	return ValidateQueryShape(src.M(), src.N(), t, k)
}

// validateAccess is validate plus the access every algorithm but TA
// needs: sorted access to every list and, when random is set and there
// is more than one list, random access. name heads the rejection.
func validateAccess(src *access.Source, t agg.Func, k int, name string, random bool) error {
	if err := validate(src, t, k); err != nil {
		return err
	}
	for i := 0; i < src.M(); i++ {
		if !src.CanSorted(i) {
			return fmt.Errorf("%w: %s needs sorted access to every list", ErrBadQuery, name)
		}
	}
	if random && src.M() > 1 && !src.CanRandom(0) {
		return fmt.Errorf("%w: %s needs random access; use NRA when random access is impossible", ErrBadQuery, name)
	}
	return nil
}
