package adversary

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/model"
)

// checkInstance validates the construction invariants shared by every
// adversarial instance: the ground truth matches the declared answer, and
// the opponent script runs and returns that answer. (Building the
// database already checked that every grade lies in [0, 1].)
func checkInstance(t *testing.T, in *Instance) {
	t.Helper()
	truth := model.TopKByGrade(in.DB, in.K, in.Agg.Apply)
	if len(truth) != len(in.Answer) {
		t.Fatalf("%s: ground truth has %d items, expected %d", in.Name, len(truth), len(in.Answer))
	}
	for i, e := range truth {
		if math.Abs(float64(e.Grade)-float64(in.Answer[i])) > 1e-12 {
			t.Fatalf("%s: ground-truth grade %d is %v, expected %v", in.Name, i, e.Grade, in.Answer[i])
		}
	}
	res, err := in.Opponent.Run(in.Source(), in.Agg, in.K)
	if err != nil {
		t.Fatalf("%s opponent: %v", in.Name, err)
	}
	for i, it := range res.Items {
		want := truth[i].Object
		if it.Object != want {
			// Accept any object with the same true grade (arbitrary
			// tie-breaking).
			g := in.Agg.Apply(in.DB.Grades(it.Object))
			if math.Abs(float64(g)-float64(truth[i].Grade)) > 1e-12 {
				t.Fatalf("%s opponent: item %d is object %d (grade %v), want grade %v",
					in.Name, i, it.Object, g, truth[i].Grade)
			}
		}
	}
}

func runOn(t *testing.T, in *Instance, al core.Algorithm) *core.Result {
	t.Helper()
	res, err := al.Run(in.Source(), in.Agg, in.K)
	if err != nil {
		t.Fatalf("%s: %s: %v", in.Name, al.Name(), err)
	}
	return res
}

// TestFigure1 reproduces Example 6.3: TA pays ≥ n+1 rounds while the
// wild-guess opponent pays two random accesses.
func TestFigure1(t *testing.T) {
	for _, n := range []int{5, 50, 500} {
		in := Figure1(n)
		checkInstance(t, in)
		res := runOn(t, in, &core.TA{})
		if res.Rounds < n+1 {
			t.Errorf("%s: TA halted after %d rounds, paper requires >= %d", in.Name, res.Rounds, n+1)
		}
		if got := res.GradeMultiset()[0]; got != 1 {
			t.Errorf("%s: TA found top grade %v, want 1", in.Name, got)
		}
		opp := runOn(t, in, in.Opponent)
		if opp.Stats.Random != 2 || opp.Stats.Sorted != 0 {
			t.Errorf("%s: opponent cost %d sorted %d random, want 0/2",
				in.Name, opp.Stats.Sorted, opp.Stats.Random)
		}
		if opp.Stats.WildGuesses != 2 {
			t.Errorf("%s: opponent made %d wild guesses, want 2", in.Name, opp.Stats.WildGuesses)
		}
	}
}

// TestFigure2 reproduces Example 6.8: TAθ needs ≥ n+1 rounds even for a
// θ-approximation; the wild-guess opponent needs two random accesses.
func TestFigure2(t *testing.T) {
	for _, n := range []int{5, 50} {
		for _, theta := range []float64{1.5, 2, 4} {
			in := Figure2(n, theta)
			checkInstance(t, in)
			if !in.DB.Distinct() {
				t.Fatalf("%s: distinctness property violated", in.Name)
			}
			res := runOn(t, in, &core.TA{Theta: theta})
			if res.Rounds < n+1 {
				t.Errorf("%s: TAθ halted after %d rounds, paper requires >= %d", in.Name, res.Rounds, n+1)
			}
			want := model.Grade(1 / theta)
			if got := res.GradeMultiset()[0]; math.Abs(float64(got-want)) > 1e-12 {
				t.Errorf("%s: TAθ found grade %v, want %v", in.Name, got, want)
			}
		}
	}
}

// TestFigure3 reproduces Example 7.3: TAz reads the entire database while
// the opponent pays 1 sorted + 2 random accesses; the cost ratio grows
// linearly with N.
func TestFigure3(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		in := Figure3(n)
		checkInstance(t, in)
		if !in.DB.Distinct() {
			t.Fatalf("%s: distinctness property violated", in.Name)
		}
		res := runOn(t, in, &core.TA{})
		if got := res.GradeMultiset()[0]; math.Abs(float64(got)-0.6) > 1e-12 {
			t.Errorf("%s: TAz found grade %v, want 0.6", in.Name, got)
		}
		// TAz must exhaust list 1 under sorted access (N accesses) and
		// random-access every object in lists 2 and 3.
		if res.Stats.Sorted != int64(n) {
			t.Errorf("%s: TAz did %d sorted accesses, want %d", in.Name, res.Stats.Sorted, n)
		}
		if res.Stats.Random != int64(2*n) {
			t.Errorf("%s: TAz did %d random accesses, want %d", in.Name, res.Stats.Random, 2*n)
		}
		opp := runOn(t, in, in.Opponent)
		if opp.Stats.Sorted != 1 || opp.Stats.Random != 2 {
			t.Errorf("%s: opponent did %d/%d accesses, want 1 sorted + 2 random",
				in.Name, opp.Stats.Sorted, opp.Stats.Random)
		}
	}
}

// TestFigure4 reproduces Example 8.3: NRA identifies the top object after
// two rounds without knowing its grade, and the C1 < C2 / C2 < C1 reversal
// holds on the modified database.
func TestFigure4(t *testing.T) {
	in := Figure4(100)
	checkInstance(t, in)
	res := runOn(t, in, &core.NRA{})
	if res.Items[0].Object != 0 {
		t.Fatalf("%s: NRA top object is %d, want 0", in.Name, res.Items[0].Object)
	}
	if res.Rounds != 2 {
		t.Errorf("%s: NRA halted after %d rounds, want 2", in.Name, res.Rounds)
	}
	if res.GradesExact {
		t.Errorf("%s: NRA claims exact grades but R's L2 grade is unseen", in.Name)
	}
	if res.Items[0].Lower != 0.5 || res.Items[0].Upper < 0.5 {
		t.Errorf("%s: NRA bounds [%v,%v] should bracket 0.5", in.Name, res.Items[0].Lower, res.Items[0].Upper)
	}

	// C1 on the original database is small...
	c1 := res.Stats.Sorted
	// ...and C2 is larger (the second object needs the 1/3 plateau
	// resolved further).
	src := in.Source()
	res2, err := (&core.NRA{}).Run(src, in.Agg, 2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := res2.Stats.Sorted
	if c1 >= c2 {
		t.Errorf("%s: expected C1 < C2, got C1=%d C2=%d", in.Name, c1, c2)
	}

	// Reversed variant: C2 < C1.
	rev := Figure4Reversed(100)
	checkInstance(t, rev)
	r2 := runOn(t, rev, &core.NRA{})
	if r2.Rounds != 3 {
		t.Errorf("%s: k=2 halted after %d rounds, want 3", rev.Name, r2.Rounds)
	}
	src = rev.Source()
	r1, err := (&core.NRA{}).Run(src, rev.Agg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Sorted <= r2.Stats.Sorted {
		t.Errorf("%s: expected C2 < C1, got C1=%d C2=%d", rev.Name, r1.Stats.Sorted, r2.Stats.Sorted)
	}
	if r1.Items[0].Object != 1 {
		t.Errorf("%s: k=1 top object is %d, want 1 (R')", rev.Name, r1.Items[0].Object)
	}
}

// TestFigure5 reproduces the Section 8.4 comparison: CA pays one random
// access; the intermittent algorithm and TA pay Θ(h) random accesses.
func TestFigure5(t *testing.T) {
	for _, h := range []int{5, 10, 20} {
		in := Figure5(h)
		checkInstance(t, in)
		costs := access.CostModel{CS: 1, CR: float64(h)}

		ca := runOn(t, in, &core.CA{H: h})
		if ca.Items[0].Object != 0 {
			t.Fatalf("%s: CA top object %d, want R=0", in.Name, ca.Items[0].Object)
		}
		if ca.Stats.Random != 1 {
			t.Errorf("%s: CA did %d random accesses, want 1", in.Name, ca.Stats.Random)
		}
		if ca.Rounds != h {
			t.Errorf("%s: CA halted at depth %d, want %d", in.Name, ca.Rounds, h)
		}

		im := runOn(t, in, &core.Intermittent{H: h})
		if im.Items[0].Object != 0 {
			t.Fatalf("%s: Intermittent top object %d, want R=0", in.Name, im.Items[0].Object)
		}
		minRandom := int64(2 * 3 * (h - 2)) // 2 accesses per top object per list
		if im.Stats.Random < minRandom {
			t.Errorf("%s: Intermittent did %d random accesses, paper requires >= %d",
				in.Name, im.Stats.Random, minRandom)
		}

		ta := runOn(t, in, &core.TA{})
		if ta.Stats.Random < minRandom {
			t.Errorf("%s: TA did %d random accesses, want >= %d", in.Name, ta.Stats.Random, minRandom)
		}

		// The cost separation grows linearly in h.
		caCost := costs.Cost(ca.Stats)
		imCost := costs.Cost(im.Stats)
		if ratio := imCost / caCost; ratio < float64(h-2)/2 {
			t.Errorf("%s: intermittent/CA cost ratio %.2f, want >= %.2f", in.Name, ratio, float64(h-2)/2)
		}
	}
}

// TestTheorem91 reproduces the Theorem 9.1 lower-bound family: TA's cost
// ratio against the opponent approaches m + m(m−1)·cR/cS from below as d
// grows.
func TestTheorem91(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		for _, rho := range []float64{1, 10} {
			costs := access.CostModel{CS: 1, CR: rho}
			bound := float64(m) + float64(m*(m-1))*rho
			prev := 0.0
			// Convergence toward the bound is O(d/(d+(m−1)ρ)), so the
			// deepest instance scales with ρ.
			deepest := 40 * m * int(rho+1)
			for _, d := range []int{5, deepest / 4, deepest} {
				in := Theorem91(m, d)
				checkInstance(t, in)
				ta := runOn(t, in, &core.TA{})
				if ta.Rounds != d {
					t.Errorf("%s: TA halted at depth %d, want %d", in.Name, ta.Rounds, d)
				}
				// TA checks its stopping rule after every sorted
				// access, so it halts upon seeing T in list 0 at
				// depth d, skipping the rest of that round.
				wantSorted := int64(d*m - (m - 1))
				if ta.Stats.Sorted != wantSorted || ta.Stats.Random != wantSorted*int64(m-1) {
					t.Errorf("%s: TA did %d/%d accesses, want %d/%d",
						in.Name, ta.Stats.Sorted, ta.Stats.Random, wantSorted, wantSorted*int64(m-1))
				}
				opp := runOn(t, in, in.Opponent)
				ratio := costs.Cost(ta.Stats) / costs.Cost(opp.Stats)
				if ratio > bound+1e-9 {
					t.Errorf("%s: ratio %.3f exceeds theoretical bound %.3f", in.Name, ratio, bound)
				}
				if ratio < prev {
					t.Errorf("%s: ratio %.3f not increasing toward the bound (prev %.3f)", in.Name, ratio, prev)
				}
				prev = ratio
			}
			if prev < 0.9*bound {
				t.Errorf("m=%d ρ=%g: largest measured ratio %.3f is far below the bound %.3f",
					m, rho, prev, bound)
			}
		}
	}
}

// TestTheorem92 reproduces the Theorem 9.2 family: for t = MinPlus under
// distinctness, both TA's and CA's cost ratios grow with cR/cS (no
// algorithm can be independent of it), staying above the paper's
// (m−2)/2 · cR/cS line within the measured range.
func TestTheorem92(t *testing.T) {
	const m = 4
	prevTA, prevCA := 0.0, 0.0
	for _, rho := range []float64{2, 8, 32} {
		costs := access.CostModel{CS: 1, CR: rho}
		// The family's parameters scale with ρ, as in the proof
		// (d → ∞ for each fixed cR/cS); the adversary's power to hold
		// the winner back is realized by maximizing over tIdx.
		d := 2 * (m - 2) * int(rho)
		n := maxInt(8*d, 4*(d-1)*(m-2)*int(rho)+4)
		n += (4 - n%4) % 4
		taRatio, caRatio := 0.0, 0.0
		for tIdx := 1; tIdx <= d; tIdx++ {
			in := Theorem92(m, d, n, tIdx)
			if tIdx == 1 {
				checkInstance(t, in)
				if !in.DB.Distinct() {
					t.Fatalf("%s: distinctness property violated", in.Name)
				}
			}
			opp := runOn(t, in, in.Opponent)
			oppCost := costs.Cost(opp.Stats)
			ta := runOn(t, in, &core.TA{})
			ca := runOn(t, in, &core.CA{H: int(rho)})
			if r := costs.Cost(ta.Stats) / oppCost; r > taRatio {
				taRatio = r
			}
			if r := costs.Cost(ca.Stats) / oppCost; r > caRatio {
				caRatio = r
			}
		}
		line := (float64(m) - 2) / 2 * rho
		if caRatio < 0.5*line {
			t.Errorf("ρ=%g: worst CA ratio %.2f far below the (m−2)/2·cR/cS line %.2f", rho, caRatio, line)
		}
		if taRatio <= prevTA {
			t.Errorf("ρ=%g: TA worst ratio %.2f did not grow (prev %.2f)", rho, taRatio, prevTA)
		}
		if caRatio <= prevCA {
			t.Errorf("ρ=%g: CA worst ratio %.2f did not grow (prev %.2f)", rho, caRatio, prevCA)
		}
		prevTA, prevCA = taRatio, caRatio
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTheorem94 reproduces the regime contrast behind Theorems 8.10/9.4:
// on the min/distinctness family, CA's cost is essentially independent of
// cR/cS while TA's grows linearly in it.
func TestTheorem94(t *testing.T) {
	m, d := 3, 4
	n := 1 + (d - 1) + (m-1)*(d*m-1) + d*(m-1) + 50
	in := Theorem94(m, d, n)
	checkInstance(t, in)
	if !in.DB.Distinct() {
		t.Fatalf("%s: distinctness property violated", in.Name)
	}
	var caCosts, taCosts []float64
	for _, rho := range []float64{1, 4, 16, 64} {
		costs := access.CostModel{CS: 1, CR: rho}
		ca := runOn(t, in, &core.CA{H: int(rho)})
		ta := runOn(t, in, &core.TA{})
		caCosts = append(caCosts, costs.Cost(ca.Stats))
		taCosts = append(taCosts, costs.Cost(ta.Stats))
	}
	// TA's cost grows ~linearly with ρ; CA's stays within a small factor.
	if taCosts[3] < 10*taCosts[0]/16 {
		t.Errorf("%s: TA cost did not grow with cR/cS: %v", in.Name, taCosts)
	}
	if caCosts[3] > 4*caCosts[0] {
		t.Errorf("%s: CA cost grew too much with cR/cS: %v", in.Name, caCosts)
	}
}

// TestTheorem95 reproduces the Theorem 9.5 family: NRA descends to depth d
// in all m lists (dm sorted accesses) while the opponent needs only
// d + (m−1)(2m−2); the ratio approaches m as d grows.
func TestTheorem95(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		prev := 0.0
		for _, d := range []int{4 * m, 16 * m, 64 * m} {
			in := Theorem95(m, d)
			checkInstance(t, in)
			nra := runOn(t, in, &core.NRA{})
			if nra.Stats.Sorted != int64(d*m) {
				t.Errorf("%s: NRA did %d sorted accesses, want %d", in.Name, nra.Stats.Sorted, d*m)
			}
			if nra.Stats.Random != 0 {
				t.Errorf("%s: NRA did random accesses", in.Name)
			}
			opp := runOn(t, in, in.Opponent)
			wantOpp := int64(d + (m-1)*(2*m-2))
			if opp.Stats.Sorted != wantOpp {
				t.Errorf("%s: opponent did %d sorted accesses, want %d", in.Name, opp.Stats.Sorted, wantOpp)
			}
			ratio := float64(nra.Stats.Sorted) / float64(opp.Stats.Sorted)
			if ratio > float64(m)+1e-9 {
				t.Errorf("%s: ratio %.3f exceeds m=%d", in.Name, ratio, m)
			}
			if ratio < prev {
				t.Errorf("%s: ratio %.3f not increasing (prev %.3f)", in.Name, ratio, prev)
			}
			prev = ratio
		}
		if prev < 0.85*float64(m) {
			t.Errorf("m=%d: largest ratio %.3f far below m", m, prev)
		}
	}
}
