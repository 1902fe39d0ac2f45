package main

import (
	"fmt"
	"sort"

	"repro"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/traffic"
)

// oracle is the answer checker: for every aggregation a trace uses, the
// exact ranking prefix (deep enough for the largest k plus one) computed
// from a full scan of the database. It is built outside every timed region.
type oracle struct {
	db  *repro.Database
	fns map[string]repro.AggFunc
	top map[string][]repro.Scored // true grade descending, ObjectID ascending
}

func newOracle(db *repro.Database, reqs []traffic.Request) (*oracle, error) {
	depth := map[string]int{}
	for _, r := range reqs {
		if r.Spec.K+1 > depth[r.Spec.Agg] {
			depth[r.Spec.Agg] = r.Spec.K + 1
		}
	}
	o := &oracle{db: db, fns: map[string]repro.AggFunc{}, top: map[string][]repro.Scored{}}
	objs := db.Objects()
	for name, d := range depth {
		f, err := agg.ByName(name, db.M())
		if err != nil {
			return nil, err
		}
		all := make([]repro.Scored, len(objs))
		for i, obj := range objs {
			g := f.Apply(db.Grades(obj))
			all[i] = repro.Scored{Object: obj, Grade: g, Lower: g, Upper: g}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Grade != all[j].Grade {
				return all[i].Grade > all[j].Grade
			}
			return all[i].Object < all[j].Object
		})
		if d > len(all) {
			d = len(all)
		}
		o.fns[name], o.top[name] = f, all[:d]
	}
	return o, nil
}

// check verifies one answer against the paper's guarantee for its
// algorithm: TA and cost-aware TA return the exact top-k grade multiset
// (as reported and as recomputed from the database), NRA returns an object
// set whose true grades are the top-k multiset, and TAθ returns a set whose
// certificate θ·t(y) ≥ t(z) holds for every answer y and non-answer z.
func (o *oracle) check(q traffic.QuerySpec, res *repro.Result) error {
	f, top := o.fns[q.Agg], o.top[q.Agg]
	k := q.K
	if n := o.db.N(); k > n {
		k = n
	}
	if len(res.Items) != k {
		return fmt.Errorf("%s k=%d: %d items, want %d", q.Agg, q.K, len(res.Items), k)
	}
	truth := core.TrueGradeMultiset(o.db, f, res.Items)
	if q.Theta > 1 && (q.Algo == "" || q.Algo == traffic.AlgoTA) {
		return o.checkTheta(q, res, truth)
	}
	for i, g := range truth {
		if g != top[i].Grade {
			return fmt.Errorf("%s %s k=%d: true grade %d is %v, want %v", q.Algo, q.Agg, q.K, i, g, top[i].Grade)
		}
	}
	if q.Algo == traffic.AlgoNRA {
		return nil
	}
	if !res.GradesExact {
		return fmt.Errorf("%s %s k=%d: grades not exact", q.Algo, q.Agg, q.K)
	}
	for i, g := range res.GradeMultiset() {
		if g != top[i].Grade {
			return fmt.Errorf("%s %s k=%d: reported grade %d is %v, want %v", q.Algo, q.Agg, q.K, i, g, top[i].Grade)
		}
	}
	return nil
}

// checkTheta verifies a θ-approximation certificate (Section 6.2): the
// certified θ is at most the requested one, and θ times the weakest
// answer's true grade is at least the best non-answer's true grade.
func (o *oracle) checkTheta(q traffic.QuerySpec, res *repro.Result, truth []repro.Grade) error {
	if res.Theta < 1 || res.Theta > q.Theta {
		return fmt.Errorf("TAθ %s k=%d: certified θ=%v outside [1, %v]", q.Agg, q.K, res.Theta, q.Theta)
	}
	in := make(map[repro.ObjectID]bool, len(res.Items))
	for _, it := range res.Items {
		in[it.Object] = true
	}
	weakest := truth[len(truth)-1]
	for _, z := range o.top[q.Agg] {
		if in[z.Object] {
			continue
		}
		// Allow one rounding step in the product; grades themselves are exact.
		if res.Theta*float64(weakest) < float64(z.Grade)*(1-1e-12) {
			return fmt.Errorf("TAθ %s k=%d: θ=%v · %v < non-answer grade %v", q.Agg, q.K, res.Theta, weakest, z.Grade)
		}
		break // the ranking is descending: the first non-answer is the best
	}
	return nil
}
