// Package agg provides the monotone aggregation functions studied in Fagin,
// Lotem and Naor (PODS 2001), together with the property taxonomy the
// paper's theorems hinge on:
//
//   - monotone: t(x) ≤ t(x') whenever xᵢ ≤ x'ᵢ for every i (all functions
//     here are monotone; TA is instance optimal for all of them).
//   - strict: t(x₁,…,xₘ)=1 exactly when every xᵢ=1 (Corollary 6.2's
//     optimality-ratio lower bound needs strictness).
//   - strictly monotone: t(x) < t(x') whenever xᵢ < x'ᵢ for every i
//     (Theorem 6.5 needs this plus the distinctness property).
//   - strictly monotone in each argument: raising any single coordinate
//     strictly raises t (Theorem 8.9's condition for CA).
package agg

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// Func is a monotone aggregation function over grade vectors of fixed arity.
type Func interface {
	// Name is a short stable identifier, e.g. "min" or "sum".
	Name() string
	// Arity is the number m of arguments (sorted lists).
	Arity() int
	// Apply evaluates the function. len(grades) must equal Arity.
	Apply(grades []model.Grade) model.Grade
	// Strict reports whether t(x)=1 exactly when all xᵢ=1.
	Strict() bool
	// StrictlyMonotone reports strict monotonicity (all coordinates
	// strictly increase ⇒ value strictly increases).
	StrictlyMonotone() bool
	// StrictlyMonotoneEach reports strict monotonicity in each argument.
	StrictlyMonotoneEach() bool
}

// Kind tells which of Min, Max, Sum and Avg built a Func, so a caller
// that evaluates one function very many times over vectors it assembles
// itself (the NRA family's bound table) can fold the grades inline instead
// of filling a vector and calling Apply. An inline fold must perform
// exactly the floating-point operations, in the order, that Apply
// performs:
//
//   - KindMin and KindMax start from the first grade and compare each
//     later one in turn (v = g when g < v, resp. g > v);
//   - KindSum adds the grades from 0.0 in list order (v += g);
//   - KindAvg is KindSum's fold followed by one division by the arity.
type Kind uint8

const (
	KindOther Kind = iota // any other Func: evaluate it through Apply
	KindMin
	KindMax
	KindSum
	KindAvg
)

// KindOf reports which of Min, Max, Sum and Avg built t, and KindOther for
// every other Func — another constructor's, or a caller's own type,
// whatever its Name.
func KindOf(t Func) Kind {
	if p, ok := t.(*props); ok {
		return p.kind
	}
	return KindOther
}

// props carries the declared property flags shared by all implementations.
type props struct {
	name      string
	arity     int
	strict    bool
	sm        bool // strictly monotone
	smEach    bool // strictly monotone in each argument
	kind      Kind
	applyFunc func([]model.Grade) model.Grade
}

func (p *props) Name() string               { return p.name }
func (p *props) Arity() int                 { return p.arity }
func (p *props) Strict() bool               { return p.strict }
func (p *props) StrictlyMonotone() bool     { return p.sm }
func (p *props) StrictlyMonotoneEach() bool { return p.smEach }

func (p *props) Apply(grades []model.Grade) model.Grade {
	if len(grades) != p.arity {
		panic(fmt.Sprintf("agg: %s expects %d grades, got %d", p.name, p.arity, len(grades)))
	}
	return p.applyFunc(grades)
}

// stackArity is the widest grade vector Median and OWA sort in a stack
// buffer. Every query path rejects more lists than this (core.MaxLists),
// so only a direct call with a wider vector allocates.
const stackArity = 64

// sorted copies gs into buf's backing array — a fresh one when it does not
// fit — and sorts the copy ascending.
func sorted(gs, buf []model.Grade) []model.Grade {
	tmp := append(buf, gs...)
	slices.Sort(tmp)
	return tmp
}

// Min returns the fuzzy-conjunction aggregation min(x₁,…,xₘ). Min is strict
// and strictly monotone, but not strictly monotone in each argument.
func Min(m int) Func {
	return &props{
		name: "min", arity: m, strict: true, sm: true, smEach: false, kind: KindMin,
		applyFunc: func(gs []model.Grade) model.Grade {
			v := gs[0]
			for _, g := range gs[1:] {
				if g < v {
					v = g
				}
			}
			return v
		},
	}
}

// Max returns the fuzzy-disjunction aggregation max(x₁,…,xₘ). Max is
// monotone but not strict: t=1 as soon as any coordinate is 1. The paper
// uses max as the canonical example where FA's optimality fails yet TA stays
// instance optimal with ratio m.
func Max(m int) Func {
	return &props{
		name: "max", arity: m, strict: false, sm: true, smEach: false, kind: KindMax,
		applyFunc: func(gs []model.Grade) model.Grade {
			v := gs[0]
			for _, g := range gs[1:] {
				if g > v {
					v = g
				}
			}
			return v
		},
	}
}

// Sum returns x₁+…+xₘ, the information-retrieval scoring function from the
// paper's introduction. Overall grades may exceed 1; the paper explicitly
// allows this reading. Sum is strictly monotone in each argument; it is not
// strict under the [0,1]-valued convention (t=1 does not force all xᵢ=1).
func Sum(m int) Func {
	return &props{
		name: "sum", arity: m, strict: false, sm: true, smEach: true, kind: KindSum,
		applyFunc: func(gs []model.Grade) model.Grade {
			var v model.Grade
			for _, g := range gs {
				v += g
			}
			return v
		},
	}
}

// Avg returns the average (x₁+…+xₘ)/m. Avg is strict and strictly monotone
// in each argument.
func Avg(m int) Func {
	return &props{
		name: "avg", arity: m, strict: true, sm: true, smEach: true, kind: KindAvg,
		applyFunc: func(gs []model.Grade) model.Grade {
			var v model.Grade
			for _, g := range gs {
				v += g
			}
			return v / model.Grade(m)
		},
	}
}

// Product returns x₁·…·xₘ, the Aksoy–Franklin broadcast-scheduling scoring
// function (their t(x₁,x₂)=x₁x₂). Product is strict and strictly monotone,
// but not strictly monotone in each argument (raising a coordinate while
// another is 0 leaves the product 0).
func Product(m int) Func {
	return &props{
		name: "product", arity: m, strict: true, sm: true, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			v := model.Grade(1)
			for _, g := range gs {
				v *= g
			}
			return v
		},
	}
}

// WeightedSum returns w₁x₁+…+wₘxₘ for fixed non-negative weights. With all
// weights positive it is strictly monotone in each argument.
func WeightedSum(weights []float64) Func {
	ws := make([]float64, len(weights))
	copy(ws, weights)
	allPositive := true
	for _, w := range ws {
		if w < 0 {
			panic("agg: WeightedSum weights must be non-negative")
		}
		if w == 0 {
			allPositive = false
		}
	}
	return &props{
		name: "wsum", arity: len(ws), strict: false, sm: allPositive, smEach: allPositive,
		applyFunc: func(gs []model.Grade) model.Grade {
			var v model.Grade
			for i, g := range gs {
				v += model.Grade(ws[i]) * g
			}
			return v
		},
	}
}

// Median returns the median grade (lower median for even m). The paper uses
// median as an example where partial information is already informative for
// NRA's lower bound W (Section 8) and where an object's overall grade can be
// known without all fields (Section 10). Median is monotone but neither
// strict nor strictly monotone in each argument.
func Median(m int) Func {
	return &props{
		name: "median", arity: m, strict: false, sm: true, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			var buf [stackArity]model.Grade
			tmp := sorted(gs, buf[:0])
			return tmp[(len(tmp)-1)/2]
		},
	}
}

// Constant returns the constant aggregation t≡c. The paper uses constant
// functions to show FA is not optimal for every monotone t (any k objects
// are a correct answer at O(1) cost). Constant is monotone only.
func Constant(m int, c model.Grade) Func {
	return &props{
		name: "const", arity: m, strict: false, sm: false, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade { return c },
	}
}

// MinPlus returns the paper's equation (5): t(x₁,…,xₘ) =
// min(x₁+x₂, x₃, …, xₘ), the strictly monotone aggregation used in
// Theorem 9.2 to prove the (m−2)/2·cR/cS optimality-ratio lower bound under
// the distinctness property. Requires m ≥ 3. MinPlus is strictly monotone
// but neither strictly monotone in each argument nor strict (t=1 is
// reachable with x₁=1, x₂=0 and all other coordinates 1).
func MinPlus(m int) Func {
	if m < 3 {
		panic("agg: MinPlus requires m >= 3")
	}
	return &props{
		name: "minplus", arity: m, strict: false, sm: true, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			v := gs[0] + gs[1]
			for _, g := range gs[2:] {
				if g < v {
					v = g
				}
			}
			return v
		},
	}
}

// Gate returns Example 7.3's three-argument aggregation:
//
//	t(x,y,z) = min(x,y)     if z = 1
//	t(x,y,z) = min(x,y,z)/2 if z ≠ 1
//
// Gate is strictly monotone and strict (as the paper states), and is the
// witness that TAz is not instance optimal even under distinctness.
func Gate() Func {
	return &props{
		name: "gate", arity: 3, strict: true, sm: true, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			x, y, z := gs[0], gs[1], gs[2]
			mn := x
			if y < mn {
				mn = y
			}
			if z == 1 {
				return mn
			}
			if z < mn {
				mn = z
			}
			return mn / 2
		},
	}
}

// Lukasiewicz returns the Łukasiewicz t-norm max(0, x₁+…+xₘ−(m−1)), a
// standard fuzzy conjunction that is monotone and strict but not strictly
// monotone (it is constant 0 on a region), illustrating the paper's remark
// that conjunctions from the literature can fail strict monotonicity.
func Lukasiewicz(m int) Func {
	return &props{
		name: "lukasiewicz", arity: m, strict: true, sm: false, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			var v model.Grade
			for _, g := range gs {
				v += g
			}
			v -= model.Grade(m - 1)
			if v < 0 {
				return 0
			}
			return v
		},
	}
}

// GeometricMean returns (x₁·…·xₘ)^(1/m), a strict, strictly monotone
// aggregation; like Product it is not strictly monotone in each argument.
func GeometricMean(m int) Func {
	return &props{
		name: "geomean", arity: m, strict: true, sm: true, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			v := 1.0
			for _, g := range gs {
				v *= float64(g)
			}
			return model.Grade(math.Pow(v, 1.0/float64(m)))
		},
	}
}

// MinOfFirstTwo returns t(x₁,…,xₘ) = min(x₁,x₂), the paper's closing example
// (footnote 18) of an aggregation for which TA is not tightly instance
// optimal when m ≥ 3. Monotone, not strict for m ≥ 3 (coordinates beyond the
// second are ignored).
func MinOfFirstTwo(m int) Func {
	if m < 2 {
		panic("agg: MinOfFirstTwo requires m >= 2")
	}
	return &props{
		name: "min2", arity: m, strict: m == 2, sm: false, smEach: false,
		applyFunc: func(gs []model.Grade) model.Grade {
			if gs[0] < gs[1] {
				return gs[0]
			}
			return gs[1]
		},
	}
}
