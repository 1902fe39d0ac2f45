// Package instopt makes the paper's "shortest proof" view of instance
// optimality (Section 5) executable: a completed run — an access trace
// plus an answer — is a *proof* if the answer is a valid (θ-approximate)
// top-k in every database consistent with what the trace observed. The
// verifier replays the trace, reconstructs exactly the information an
// algorithm could possess (observed fields, per-list bottom grades, and —
// in distinctness mode — the exclusion of already-observed grades), and
// checks the certificate condition
//
//	θ · W(answer) ≥ B(z)   for every object z outside the answer,
//
// where W fills missing fields with 0 and B fills them with the largest
// grade still possible. This is precisely the stopping rule of NRA/CA
// and subsumes TA's threshold rule, so every algorithm in internal/core
// must halt in a proof state — tests assert exactly that, and also verify
// each adversarial opponent's script.
//
// The check is sufficient, not necessary: it evaluates W and B in
// independent worst cases, which is how all the paper's algorithms reason.
package instopt

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

// Epsilon is the margin used in distinctness mode when the supremum of an
// unknown grade is an open bound (the bounding grade is already taken by
// another object in that list).
const Epsilon = 1e-9

// tolerance absorbs floating-point noise in the certificate's comparison.
const tolerance = 1e-12

// Options configures a verification.
type Options struct {
	// Theta is the approximation parameter; 0 or 1 means exact top-k.
	Theta float64
	// Distinct asserts the database is known to satisfy the
	// distinctness property, allowing strictly tighter upper bounds
	// (an unknown grade cannot equal a grade already observed in that
	// list).
	Distinct bool
}

// knowledge is the information state reconstructed from a trace.
type knowledge struct {
	m       int
	n       int
	t       agg.Func
	known   map[model.ObjectID][]bool
	grades  map[model.ObjectID][]model.Grade
	bottoms []model.Grade
	// taken[j] holds the grades observed in list j (for distinctness
	// mode's open bounds).
	taken []map[model.Grade]bool
}

// Replay reconstructs the information state from a trace.
func replay(trace *access.Trace, t agg.Func, n int) *knowledge {
	m := t.Arity()
	k := &knowledge{
		m: m, n: n, t: t,
		known:   make(map[model.ObjectID][]bool),
		grades:  make(map[model.ObjectID][]model.Grade),
		bottoms: make([]model.Grade, m),
		taken:   make([]map[model.Grade]bool, m),
	}
	for j := 0; j < m; j++ {
		k.bottoms[j] = 1
		k.taken[j] = make(map[model.Grade]bool)
	}
	for _, e := range trace.Entries {
		if !e.OK {
			continue
		}
		k.learn(e.Object, e.List, e.Grade)
		if e.Sorted {
			k.bottoms[e.List] = e.Grade
		}
	}
	return k
}

func (k *knowledge) learn(obj model.ObjectID, list int, g model.Grade) {
	kn := k.known[obj]
	if kn == nil {
		kn = make([]bool, k.m)
		k.known[obj] = kn
		k.grades[obj] = make([]model.Grade, k.m)
	}
	kn[list] = true
	k.grades[obj][list] = g
	k.taken[list][g] = true
}

// upperFill returns the largest grade object obj could still have in list
// j, given the observations.
func (k *knowledge) upperFill(obj model.ObjectID, j int, distinct bool) model.Grade {
	sup := k.bottoms[j]
	if !distinct {
		return sup
	}
	// Distinctness: the unknown grade cannot equal any observed grade
	// in list j; if the bound itself is taken, the supremum is open.
	for k.taken[j][sup] && sup > 0 {
		sup -= Epsilon
	}
	if sup < 0 {
		sup = 0
	}
	return sup
}

// wOf computes W(obj): missing fields at 0.
func (k *knowledge) wOf(obj model.ObjectID) model.Grade {
	buf := make([]model.Grade, k.m)
	kn := k.known[obj]
	for j := 0; j < k.m; j++ {
		if kn != nil && kn[j] {
			buf[j] = k.grades[obj][j]
		}
	}
	return k.t.Apply(buf)
}

// bOf computes B(obj): missing fields at their largest possible value.
func (k *knowledge) bOf(obj model.ObjectID, distinct bool) model.Grade {
	buf := make([]model.Grade, k.m)
	kn := k.known[obj]
	for j := 0; j < k.m; j++ {
		if kn != nil && kn[j] {
			buf[j] = k.grades[obj][j]
		} else {
			buf[j] = k.upperFill(obj, j, distinct)
		}
	}
	return k.t.Apply(buf)
}

// unseenBound computes B of a completely unseen object (the threshold τ,
// tightened under distinctness).
func (k *knowledge) unseenBound(distinct bool) model.Grade {
	buf := make([]model.Grade, k.m)
	for j := 0; j < k.m; j++ {
		buf[j] = k.upperFill(-1, j, distinct)
	}
	return k.t.Apply(buf)
}

// Report is the outcome of a verification.
type Report struct {
	Valid bool
	// Reason explains the first certificate violation when !Valid.
	Reason string
	// AnswerFloor is θ·min W over the answer; Ceiling is the largest
	// B among outsiders (including unseen objects).
	AnswerFloor float64
	Ceiling     float64
}

// Verify checks whether trace proves that answer is a (θ-approximate)
// top-k of any consistent database with n objects under t. The answer
// slice holds the claimed top-k objects.
func Verify(trace *access.Trace, t agg.Func, n int, answer []model.ObjectID, opts Options) (*Report, error) {
	if trace == nil || t == nil {
		return nil, fmt.Errorf("instopt: nil trace or aggregation")
	}
	if len(answer) == 0 || len(answer) > n {
		return nil, fmt.Errorf("instopt: answer size %d out of range (N=%d)", len(answer), n)
	}
	theta := opts.Theta
	if theta == 0 {
		theta = 1
	}
	if theta < 1 {
		return nil, fmt.Errorf("instopt: θ=%g below 1", theta)
	}
	k := replay(trace, t, n)

	inAnswer := make(map[model.ObjectID]bool, len(answer))
	floor := math.Inf(1)
	for _, obj := range answer {
		if inAnswer[obj] {
			return nil, fmt.Errorf("instopt: object %d appears twice in the answer", obj)
		}
		inAnswer[obj] = true
		if w := float64(k.wOf(obj)); w < floor {
			floor = w
		}
	}
	floor *= theta

	rep := &Report{Valid: true, AnswerFloor: floor, Ceiling: math.Inf(-1)}
	check := func(label string, b float64) {
		if b > rep.Ceiling {
			rep.Ceiling = b
		}
		if rep.Valid && b > floor+tolerance {
			rep.Valid = false
			rep.Reason = fmt.Sprintf("%s has possible grade %.9g above the answer floor %.9g", label, b, floor)
		}
	}
	// Seen objects outside the answer.
	for obj := range k.known {
		if inAnswer[obj] {
			continue
		}
		check(fmt.Sprintf("seen object %d", obj), float64(k.bOf(obj, opts.Distinct)))
	}
	// Unseen objects, if any can exist.
	if len(k.known) < n {
		check("an unseen object", float64(k.unseenBound(opts.Distinct)))
	}
	return rep, nil
}
