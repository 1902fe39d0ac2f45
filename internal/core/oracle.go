package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// ScriptStep is one access performed by a Scripted opponent.
type ScriptStep struct {
	// Sorted selects the access mode: a sorted access on List, or a
	// random access on List for Object.
	Sorted bool
	List   int
	Object model.ObjectID
}

// SortedStep returns a sorted-access step on list i.
func SortedStep(i int) ScriptStep { return ScriptStep{Sorted: true, List: i} }

// RandomStep returns a random-access step probing obj in list i.
func RandomStep(i int, obj model.ObjectID) ScriptStep {
	return ScriptStep{List: i, Object: obj}
}

// Scripted is an oracle opponent: an algorithm with out-of-band knowledge
// of the database that performs a fixed access script and then outputs a
// fixed answer. It realizes the paper's notion that the cost of the best
// nondeterministic algorithm is "the cost of the shortest proof" that the
// output is correct (Section 5): each adversarial family in
// internal/adversary constructs the Scripted opponent its theorem compares
// against — including opponents that make wild guesses, which TA is not
// allowed to do. Tests independently verify each scripted answer against
// the Naive oracle, so a mis-scripted opponent cannot silently skew an
// experiment.
type Scripted struct {
	// Label names the opponent, e.g. "wild-guess".
	Label string
	// Steps is the access script, executed in order against the Source
	// (so its cost is measured the same way as any algorithm's).
	Steps []ScriptStep
	// Answer is the top-k answer the opponent outputs, best first.
	Answer []Scored
	// InexactGrades marks opponents that prove the top-k set without
	// determining all grades (permitted in the Section 8 setting).
	InexactGrades bool
}

// Name implements Algorithm.
func (s *Scripted) Name() string {
	if s.Label == "" {
		return "Scripted"
	}
	return "Scripted(" + s.Label + ")"
}

// Run implements Algorithm: it performs the script, charging every access,
// and returns the predetermined answer.
func (s *Scripted) Run(src *access.Source, t agg.Func, k int) (*Result, error) {
	if err := validate(src, t, k); err != nil {
		return nil, err
	}
	if len(s.Answer) != k {
		return nil, fmt.Errorf("%w: scripted answer has %d items, want k=%d", ErrBadQuery, len(s.Answer), k)
	}
	for _, st := range s.Steps {
		if st.List < 0 || st.List >= src.M() {
			return nil, fmt.Errorf("%w: script references list %d of %d", ErrBadQuery, st.List, src.M())
		}
		var err error
		if st.Sorted {
			_, _, err = src.SortedNext(st.List)
		} else {
			_, _, err = src.Random(st.List, st.Object)
		}
		if err != nil {
			return nil, err
		}
	}
	items := make([]Scored, len(s.Answer))
	copy(items, s.Answer)
	return &Result{
		Items:       items,
		GradesExact: !s.InexactGrades,
		Theta:       1,
		Stats:       src.Stats(),
	}, nil
}
