package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// foldCtors maps each kind the bound table folds inline to its constructor.
var foldCtors = map[agg.Kind]func(m int) agg.Func{
	agg.KindMin: agg.Min, agg.KindMax: agg.Max, agg.KindSum: agg.Sum, agg.KindAvg: agg.Avg,
}

// checkFoldsMatchApply fails t unless both inline folds of kind over
// (known, grades, bottoms) return the bits Apply returns on the filled
// vectors: 0s in the missing fields for W, bottoms for B.
func checkFoldsMatchApply(t *testing.T, kind agg.Kind, known uint64, grades, bottoms []model.Grade) {
	t.Helper()
	f := foldCtors[kind](len(bottoms))
	if got := agg.KindOf(f); got != kind {
		t.Fatalf("KindOf(%s) = %v, want %v", f.Name(), got, kind)
	}
	filled := func(fill []model.Grade) []model.Grade {
		v := make([]model.Grade, len(bottoms))
		for j := range v {
			switch {
			case known&(uint64(1)<<uint(j)) != 0:
				v[j] = grades[j]
			case fill != nil:
				v[j] = fill[j]
			}
		}
		return v
	}
	wantW, wantB := f.Apply(filled(nil)), f.Apply(filled(bottoms))
	same := func(a, b model.Grade) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	if got := foldUpper(kind, known, grades, bottoms); !same(got, wantB) {
		t.Fatalf("%s foldUpper(known %b, grades %v, bottoms %v) = %v, Apply %v", f.Name(), known, grades, bottoms, got, wantB)
	}
	if w, b := foldBounds(kind, known, grades, bottoms); !same(w, wantW) || !same(b, wantB) {
		t.Fatalf("%s foldBounds(known %b, grades %v, bottoms %v) = (%v, %v), Apply (%v, %v)", f.Name(), known, grades, bottoms, w, b, wantW, wantB)
	}
}

// TestFoldMatchesApply checks the bound table's inline folds against Apply
// bit for bit, for every folded kind at m = 1…8, over random known-field
// masks (none and all among them) and grades and bottoms drawn to include
// 0, 1 and repeats.
func TestFoldMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(prev model.Grade) model.Grade {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return prev
		}
		return model.Grade(rng.Float64())
	}
	for _, kind := range []agg.Kind{agg.KindMin, agg.KindMax, agg.KindSum, agg.KindAvg} {
		for m := 1; m <= 8; m++ {
			all := uint64(1)<<uint(m) - 1
			for trial := 0; trial < 500; trial++ {
				grades, bottoms := make([]model.Grade, m), make([]model.Grade, m)
				for j := range grades {
					prev := model.Grade(0.5)
					if j > 0 {
						prev = grades[j-1]
					}
					grades[j], bottoms[j] = draw(prev), draw(grades[j])
				}
				known := rng.Uint64() & all
				switch trial {
				case 0:
					known = 0
				case 1:
					known = all
				}
				checkFoldsMatchApply(t, kind, known, grades, bottoms)
			}
		}
	}
}

// FuzzFold checks the inline folds against Apply on arbitrary float bits.
// NaN is no grade (the model rejects it), so a NaN input reads as 0.
func FuzzFold(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint64(0b101), []byte{})
	f.Add(uint8(3), uint8(8), uint64(0), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	f.Add(uint8(2), uint8(1), ^uint64(0), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Fuzz(func(t *testing.T, kind, m uint8, known uint64, raw []byte) {
		k := agg.Kind(1 + kind%4)
		n := 1 + int(m%8)
		vals := make([]model.Grade, 2*n)
		for i := range vals {
			if len(raw) < 8 {
				break
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			if !math.IsNaN(x) {
				vals[i] = model.Grade(x)
			}
		}
		checkFoldsMatchApply(t, k, known&(uint64(1)<<uint(n)-1), vals[:n], vals[n:])
	})
}

// impostorAvg is Max under Avg's name: the bound table must evaluate it
// through Apply, as the max it is.
type impostorAvg struct{ agg.Func }

func (impostorAvg) Name() string { return "avg" }

// TestBoundTableDispatchesOnConstructor runs NRA, CA and cost-aware TA
// with impostorAvg and with agg.Max and demands identical results, every
// field but Stats.BoundRecomputes: a table that picked its fold by Name
// would fold impostorAvg as an average. The recompute counts differ by
// design, since the folded table orders its groups by K and the Apply twin
// refreshes its groups lazily by cached B; TestFoldedTableLockstepWithApplyTwin
// checks that both pick the same objects at the same bounds.
func TestBoundTableDispatchesOnConstructor(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	costs := access.CostModel{CS: 1, CR: 4}
	for _, alg := range []func() Algorithm{
		func() Algorithm { return &NRA{} },
		func() Algorithm { return &CA{Costs: costs} },
		func() Algorithm { return &CostAwareTA{Costs: costs} },
	} {
		impostor := impostorAvg{agg.Max(3)}
		if agg.KindOf(impostor) != agg.KindOther {
			t.Fatalf("KindOf(impostorAvg) = %v, want KindOther", agg.KindOf(impostor))
		}
		got, err := alg().Run(access.New(db, access.Policy{}), impostor, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := alg().Run(access.New(db, access.Policy{}), agg.Max(3), 8)
		if err != nil {
			t.Fatal(err)
		}
		got.Stats.BoundRecomputes, want.Stats.BoundRecomputes = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: impostor avg ran as\n%+v\nmax runs as\n%+v", alg().Name(), got, want)
		}
	}
}

// TestFoldedTableLockstepWithApplyTwin steps a table that folds a kind
// inline and a twin that evaluates the same function through Apply side by
// side: Max against impostorAvg (Max through Apply), and Avg against
// avgAlias. Both see the same sorted accesses, under NRA's clock (one depth
// per round of m accesses) or cost-aware TA's (one depth per access), and
// the same random learns. After every step drainTop and openTop must
// return the same object with the same B bits on both sides, so the two
// evaluation paths rank candidates and open members identically.
func TestFoldedTableLockstepWithApplyTwin(t *testing.T) {
	const m = 3
	uniform, err := workload.IndependentUniform(workload.Spec{N: 200, M: m, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	plateau, err := workload.Plateau(workload.Spec{N: 150, M: m, Seed: 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct{ folded, twin agg.Func }{
		{agg.Max(m), impostorAvg{agg.Max(m)}},
		{agg.Avg(m), newAvgAlias(m)},
	}
	for dbName, db := range map[string]*model.Database{"uniform": uniform, "plateau": plateau} {
		for _, pair := range pairs {
			for _, k := range []int{1, 5, 20} {
				for _, perAccess := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/k=%d/perAccess=%v", dbName, pair.folded.Name(), k, perAccess)
					lockstepTables(t, label, db, pair.folded, pair.twin, k, perAccess, rand.New(rand.NewSource(int64(k))))
				}
			}
		}
	}
}

func lockstepTables(t *testing.T, label string, db *model.Database, folded, twin agg.Func, k int, perAccess bool, rng *rand.Rand) {
	t.Helper()
	m := db.M()
	srcs := []*access.Source{access.New(db, access.AllowAll), access.New(db, access.AllowAll)}
	tbs := []*table{newTable(srcs[0], folded, k, true), newTable(srcs[1], twin, k, true)}
	for _, tb := range tbs {
		tb.trackPins = true
		defer tb.release()
	}
	if tbs[0].kind == agg.KindOther || tbs[1].kind != agg.KindOther {
		t.Fatalf("%s: kinds %v and %v, want a folded kind and KindOther", label, tbs[0].kind, tbs[1].kind)
	}
	same := func(step string, a, b *partial) {
		t.Helper()
		switch {
		case (a == nil) != (b == nil):
			t.Fatalf("%s, %s: folded returned %v, twin %v", label, step, a, b)
		case a != nil && (a.obj != b.obj || math.Float64bits(float64(a.b)) != math.Float64bits(float64(b.b))):
			t.Fatalf("%s, %s: folded returned object %d at B %v, twin object %d at B %v", label, step, a.obj, a.b, b.obj, b.b)
		}
	}
	check := func(step string) {
		t.Helper()
		same(step+" drainTop", tbs[0].drainTop(tbs[0].mk()), tbs[1].drainTop(tbs[1].mk()))
		same(step+" openTop", tbs[0].openTop(), tbs[1].openTop())
	}
	for {
		if !perAccess {
			for _, tb := range tbs {
				tb.depth++
			}
		}
		read := false
		for i := 0; i < m; i++ {
			var e model.Entry
			for j, tb := range tbs {
				got, ok, err := srcs[j].SortedNext(i)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				read, e = true, got
				if perAccess {
					tb.depth++
				}
				tb.observeSorted(i, got)
			}
			if perAccess && read {
				check(fmt.Sprintf("access to list %d (object %d)", i, e.Object))
			}
		}
		if !read {
			return
		}
		check("round")
		for n := rng.Intn(3); n > 0; n-- {
			p := tbs[0].at(rng.Intn(tbs[0].seen))
			j := rng.Intn(m)
			for _, tb := range tbs {
				tb.learn(p.obj, j, db.Grades(p.obj)[j])
			}
		}
		check("random learns")
	}
}
