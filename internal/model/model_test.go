package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustList(t *testing.T, entries []Entry) *List {
	t.Helper()
	l, err := NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewListSortsDescending(t *testing.T) {
	l := mustList(t, []Entry{
		{Object: 1, Grade: 0.2},
		{Object: 2, Grade: 0.9},
		{Object: 3, Grade: 0.5},
	})
	want := []ObjectID{2, 3, 1}
	for i, obj := range want {
		if l.At(i).Object != obj {
			t.Errorf("position %d: got object %d, want %d", i, l.At(i).Object, obj)
		}
	}
}

func TestNewListTieBreaksById(t *testing.T) {
	l := mustList(t, []Entry{
		{Object: 9, Grade: 0.5},
		{Object: 2, Grade: 0.5},
		{Object: 5, Grade: 0.5},
	})
	want := []ObjectID{2, 5, 9}
	for i, obj := range want {
		if l.At(i).Object != obj {
			t.Errorf("position %d: got object %d, want %d", i, l.At(i).Object, obj)
		}
	}
}

func TestNewListRejectsDuplicates(t *testing.T) {
	for _, entries := range [][]Entry{
		{{Object: 1, Grade: 0.1}, {Object: 1, Grade: 0.2}},
		// Span 3 = N looks dense: the grade-column fill must catch it.
		{{Object: 0, Grade: 0.9}, {Object: 2, Grade: 0.5}, {Object: 2, Grade: 0.1}},
	} {
		if _, err := NewList(entries); err == nil || !strings.Contains(err.Error(), "appears twice") {
			t.Errorf("%v: got %v, want a duplicate-object error", entries, err)
		}
	}
}

func TestNewListPresortedPreservesOrder(t *testing.T) {
	entries := []Entry{
		{Object: 7, Grade: 1},
		{Object: 3, Grade: 1},
		{Object: 1, Grade: 0.5},
		{Object: 9, Grade: 0},
	}
	l, err := NewListPresorted(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if l.At(i) != e {
			t.Errorf("position %d: got %+v, want %+v", i, l.At(i), e)
		}
	}
}

func TestNewListPresortedRejectsInversion(t *testing.T) {
	_, err := NewListPresorted([]Entry{
		{Object: 1, Grade: 0.5},
		{Object: 2, Grade: 0.9},
	})
	if err == nil {
		t.Fatal("expected inversion error")
	}
}

func TestRandomAccessMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{Object: ObjectID(i), Grade: Grade(rng.Float64())}
	}
	l := mustList(t, entries)
	for pos := 0; pos < l.Len(); pos++ {
		e := l.At(pos)
		g, ok := l.GradeOf(e.Object)
		if !ok || g != e.Grade {
			t.Fatalf("GradeOf(%d) = %v,%v; want %v,true", e.Object, g, ok, e.Grade)
		}
		r, ok := l.RankOf(e.Object)
		if !ok || r != pos {
			t.Fatalf("RankOf(%d) = %d,%v; want %d,true", e.Object, r, ok, pos)
		}
	}
	if _, ok := l.GradeOf(ObjectID(10_000)); ok {
		t.Fatal("GradeOf reported a grade for an absent object")
	}
}

// TestDatabaseValidation checks NewDatabase's shape and object-set checks,
// including those between the two index kinds: two dense lists over
// different ranges, and a dense and a sparse list of equal length.
func TestDatabaseValidation(t *testing.T) {
	list := func(ids ...ObjectID) *List {
		entries := make([]Entry, len(ids))
		for i, id := range ids {
			entries[i] = Entry{Object: id, Grade: Grade(i) / 10}
		}
		return mustList(t, entries)
	}
	for _, c := range []struct {
		lists []*List
		want  string
	}{
		{[]*List{list(1, 2), list(1, 3)}, "object 2 missing from list 1"},
		{[]*List{list(0, 1, 2), list(1, 2, 3)}, "object 0 missing from list 1"},
		{[]*List{list(0, 1, 2), list(0, 1, 5)}, "object 2 missing from list 1"},
		{[]*List{list(0, 1, 5), list(0, 1, 2)}, "object 5 missing from list 1"},
		{[]*List{list(1, 2), list(1)}, "list 1 has 1 entries"},
		{[]*List{list(), list()}, "empty"},
		{nil, "at least one list"},
	} {
		if _, err := NewDatabase(c.lists); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%d lists: got %v, want an error containing %q", len(c.lists), err, c.want)
		}
	}
	if _, err := FromRows(3, nil, nil); err == nil {
		t.Error("FromRows accepted zero rows")
	}
	if _, err := NewDatabase([]*List{list(4, 5, 6), list(6, 4, 5)}); err != nil {
		t.Errorf("two dense lists over one range rejected: %v", err)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.MustAdd(10, 0.1, 0.2, 0.3)
	b.MustAdd(20, 0.9, 0.8, 0.7)
	b.MustAdd(30, 0.5, 0.5, 0.5)
	db := b.MustBuild()
	if db.M() != 3 || db.N() != 3 {
		t.Fatalf("got %dx%d database, want 3x3", db.M(), db.N())
	}
	if got := db.Grades(20); !reflect.DeepEqual(got, []Grade{0.9, 0.8, 0.7}) {
		t.Fatalf("Grades(20) = %v", got)
	}
	if db.List(0).At(0).Object != 20 {
		t.Fatalf("list 0 top is %d, want 20", db.List(0).At(0).Object)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Add(1, 0.5); err == nil {
		t.Error("expected arity error")
	}
	if err := b.Add(1, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 0.1, 0.1); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := NewBuilder(2).Build(); err == nil {
		t.Error("expected empty-builder error")
	}
	if err := b.Add(2, 0.5, 1.5); err != nil {
		t.Fatalf("Add rejected grade 1.5, which Build checks: %v", err)
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Errorf("Build with grade 1.5: got %v, want a range error", err)
	}
}

// TestGradeDomain checks that every list constructor, and the builders and
// the CSV reader that reach one, rejects NaN, ±Inf and every grade outside
// [0, 1] with an error naming the object and the grade, and accepts the
// range's ends and a grade inside it.
func TestGradeDomain(t *testing.T) {
	build := map[string]func(g Grade) error{
		"NewList": func(g Grade) error {
			_, err := NewList([]Entry{{Object: 7, Grade: 0.25}, {Object: 3, Grade: g}})
			return err
		},
		"NewListPresorted": func(g Grade) error {
			_, err := NewListPresorted([]Entry{{Object: 3, Grade: g}})
			return err
		},
		"Builder.Build": func(g Grade) error {
			b := NewBuilder(2)
			b.MustAdd(7, 0.25, 0.25)
			b.MustAdd(3, 0.25, g)
			_, err := b.Build()
			return err
		},
		"FromRows": func(g Grade) error {
			_, err := FromRows(2, []ObjectID{7, 3}, [][]Grade{{0.25, 0.25}, {g, 0.25}})
			return err
		},
		"ReadCSV": func(g Grade) error {
			in := "object,attr1\n7,0.25\n3," + strconv.FormatFloat(float64(g), 'g', -1, 64) + "\n"
			_, err := ReadCSV(strings.NewReader(in))
			return err
		},
	}
	for name, f := range build {
		for _, g := range []Grade{Grade(math.NaN()), Grade(math.Inf(1)), Grade(math.Inf(-1)), -0.25, 1.5} {
			err := f(g)
			want := fmt.Sprintf("object 3 has grade %v, outside [0, 1]", g)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with grade %v: got %v, want an error containing %q", name, g, err, want)
			}
		}
		for _, g := range []Grade{0, 0.5, 1} {
			if err := f(g); err != nil {
				t.Errorf("%s with grade %v: %v", name, g, err)
			}
		}
	}
}

func TestBuilderNames(t *testing.T) {
	b := NewBuilder(2)
	id, err := b.AddNamed("rosa", 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := b.AddNamed("blau", 0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if id == id2 {
		t.Fatal("AddNamed reused an id")
	}
	db := b.MustBuild()
	if db.Name(id) != "rosa" || db.Name(id2) != "blau" {
		t.Errorf("names not preserved: %q %q", db.Name(id), db.Name(id2))
	}
	if db.Name(ObjectID(999)) != "obj999" {
		t.Errorf("fallback name = %q", db.Name(ObjectID(999)))
	}
}

func TestDistinct(t *testing.T) {
	b := NewBuilder(2)
	b.MustAdd(1, 0.1, 0.2)
	b.MustAdd(2, 0.3, 0.2)
	db := b.MustBuild()
	if db.List(0).Distinct() != true {
		t.Error("list 0 should be distinct")
	}
	if db.List(1).Distinct() != false {
		t.Error("list 1 should not be distinct")
	}
	if db.Distinct() {
		t.Error("database should not satisfy distinctness")
	}
}

func TestTopKByGrade(t *testing.T) {
	b := NewBuilder(2)
	b.MustAdd(1, 0.9, 0.1)
	b.MustAdd(2, 0.5, 0.5)
	b.MustAdd(3, 0.2, 0.9)
	db := b.MustBuild()
	minAgg := func(gs []Grade) Grade {
		if gs[0] < gs[1] {
			return gs[0]
		}
		return gs[1]
	}
	top := TopKByGrade(db, 2, minAgg)
	if len(top) != 2 || top[0].Object != 2 || top[0].Grade != 0.5 {
		t.Fatalf("top-2 = %+v", top)
	}
	if got := TopKByGrade(db, 10, minAgg); len(got) != 3 {
		t.Fatalf("k>N should clamp, got %d items", len(got))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.MustAdd(0, 0.25, 0.5, 0.75)
	b.MustAdd(1, 1, 0, 0.125)
	b.MustAdd(7, 0.3333333333333333, 0.1, 0.9)
	db := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != db.M() || back.N() != db.N() {
		t.Fatalf("round trip changed shape: %dx%d", back.M(), back.N())
	}
	for _, obj := range db.Objects() {
		if !reflect.DeepEqual(db.Grades(obj), back.Grades(obj)) {
			t.Errorf("object %d: %v != %v", obj, db.Grades(obj), back.Grades(obj))
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",                          // no header
		"object\n1\n",               // no attribute columns
		"object,a\nx,0.5\n",         // bad id
		"object,a\n1,zebra\n",       // bad grade
		"object,a,b\n1,0.5\n",       // short row
		"object,a\n1,0.5\n1,0.25\n", // duplicate object
	}
	for i, in := range cases {
		if _, err := ReadCSV(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

// TestListSortedInvariantQuick property-checks that NewList always yields a
// descending list containing exactly the input multiset.
func TestListSortedInvariantQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		entries := make([]Entry, len(raw))
		for i, g := range raw {
			// Map arbitrary floats into [0,1) deterministically.
			g = math.Mod(math.Abs(g), 1)
			if math.IsNaN(g) {
				g = 0
			}
			entries[i] = Entry{Object: ObjectID(i), Grade: Grade(g)}
		}
		l, err := NewList(entries)
		if err != nil {
			return false
		}
		var got []float64
		for i := 0; i < l.Len(); i++ {
			if i > 0 && l.At(i-1).Grade < l.At(i).Grade {
				return false
			}
			got = append(got, float64(l.At(i).Grade))
		}
		want := make([]float64, 0, len(entries))
		for _, e := range entries {
			want = append(want, float64(e.Grade))
		}
		sort.Float64s(want)
		sort.Float64s(got)
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexExtremeIDs checks that ids at both ends of the int range take
// the rank-map path without overflowing the span check, and that a dense
// range starting at math.MinInt answers probes on either side of it.
func TestIndexExtremeIDs(t *testing.T) {
	l := mustList(t, []Entry{
		{Object: math.MinInt, Grade: 0.25},
		{Object: math.MaxInt, Grade: 0.75},
		{Object: 0, Grade: 0.5},
	})
	if l.rank == nil || l.ra != nil {
		t.Fatal("a list spanning the whole int range did not take the rank-map path")
	}
	for pos := 0; pos < l.Len(); pos++ {
		e := l.At(pos)
		if g, ok := l.GradeOf(e.Object); !ok || g != e.Grade {
			t.Fatalf("GradeOf(%d) = %v,%v; want %v,true", e.Object, g, ok, e.Grade)
		}
	}
	if _, ok := l.GradeOf(1); ok {
		t.Fatal("GradeOf reported a grade for an absent object")
	}

	low := mustList(t, []Entry{
		{Object: math.MinInt, Grade: 0.1},
		{Object: math.MinInt + 1, Grade: 0.2},
		{Object: math.MinInt + 2, Grade: 0.3},
	})
	if low.ra == nil {
		t.Fatal("a dense range at math.MinInt did not get a grade column")
	}
	if g, ok := low.GradeOf(math.MinInt + 1); !ok || g != 0.2 {
		t.Fatalf("GradeOf(MinInt+1) = %v,%v; want 0.2,true", g, ok)
	}
	for _, obj := range []ObjectID{math.MaxInt, math.MinInt + 3, 0} {
		if _, ok := low.GradeOf(obj); ok {
			t.Errorf("GradeOf(%d) reported a grade outside the dense range", obj)
		}
	}
}

// TestDenseGradeOfBounds checks the dense column's membership tests: just
// below min, just above max, and a shard list's wrong residue.
func TestDenseGradeOfBounds(t *testing.T) {
	b := NewBuilder(1)
	for id := ObjectID(5); id < 15; id++ {
		b.MustAdd(id, Grade(id)/20)
	}
	db := b.MustBuild()
	l := db.List(0)
	if l.ra == nil {
		t.Fatal("dense ids did not get a grade column")
	}
	for _, obj := range []ObjectID{4, 15} {
		if _, ok := l.GradeOf(obj); ok {
			t.Errorf("GradeOf(%d) reported a grade outside [5, 14]", obj)
		}
	}
	shards, err := db.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		sl := sh.List(0)
		if sl.rank != nil || sl.ra == nil || &sl.ra.byObj[0] != &l.ra.byObj[0] {
			t.Fatalf("shard %d does not share its parent's grade column", s)
		}
		for id := ObjectID(4); id <= 15; id++ {
			in := id >= 5 && id < 15 && int(id-5)%3 == s
			g, ok := sl.GradeOf(id)
			if ok != in {
				t.Errorf("shard %d: GradeOf(%d) ok = %v, want %v", s, id, ok, in)
			}
			if ok && g != Grade(id)/20 {
				t.Errorf("shard %d: GradeOf(%d) = %v, want %v", s, id, g, Grade(id)/20)
			}
		}
	}
}
