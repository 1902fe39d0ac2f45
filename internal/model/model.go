// Package model defines the middleware data model from Fagin, Lotem and
// Naor, "Optimal Aggregation Algorithms for Middleware" (PODS 2001): a
// database is a set of N objects, each with m grades in [0,1], exposed as m
// lists sorted descending by grade. Lists support positional (sorted) access
// and keyed (random) access; cost accounting lives in package access.
package model

import (
	"fmt"
	"slices"
	"sort"
)

// ObjectID identifies an object in a database. IDs are small non-negative
// integers; human-readable names, when present, live in a Catalog.
type ObjectID int

// Grade is an attribute grade. The paper restricts grades to [0,1], and
// every List holds only such grades: its constructors reject NaN, ±Inf and
// any other grade outside the range. Overall grades, which an aggregation
// computes from them, may exceed 1 (sum over m lists reaches m).
type Grade float64

// Entry is one row of a sorted list: an object and its grade in that list.
type Entry struct {
	Object ObjectID
	Grade  Grade
}

// List is a single attribute list sorted descending by grade. The layout is
// columnar (struct-of-arrays): the sorted order lives in two flat parallel
// columns — objs and grades — so positional scans touch densely packed
// memory and batch reads (AtN) are straight column copies. The row-oriented
// API (At, Entries) is a thin view assembled from the columns on demand.
//
// Random access has one index per list. When the list's ids are dense (a
// permutation of min, min+1, …, min+N-1 — true for every generated
// workload), it is a grade-by-object column, and the shard lists Partition
// cuts from the list share that same column; a random access is then a
// bounds check and one array read. Only sparse id spaces (hand-edited CSV
// input, for example) pay for a rank map.
type List struct {
	objs   []ObjectID // column: object at each sorted position
	grades []Grade    // column: grade at each sorted position

	// Exactly one of ra and rank is set on a non-empty list: ra for dense
	// ids, rank (object → sorted position) for sparse ones.
	ra   *randomIndex
	rank map[ObjectID]int32
}

// randomIndex answers random accesses from a dense grade-by-object column:
// byObj[obj-min] is the object's grade. A list over dense ids owns its
// column with p = 1; a shard list Partition cuts from it shares the same
// column, and membership in shard s of p is the round-robin residue check
// (obj - min) % p == s.
type randomIndex struct {
	byObj []Grade // (obj - min) -> the object's grade in the parent list
	min   ObjectID
	p, s  int // shard membership: (obj - min) % p == s
}

// full reports whether the index covers its whole column: the list it
// serves holds every object of the dense range.
func (ra *randomIndex) full() bool { return ra != nil && ra.p == 1 }

// listColumns builds the List around pre-sorted parallel columns; callers
// guarantee descending grade order. Every constructor reaches it, so it
// holds the grade rule: a grade outside [0, 1], NaN and ±Inf included, is
// an error naming the object and the grade (Partition cuts shard lists out
// of lists that passed it). Dense ids get a grade column, filled in one
// pass that also catches duplicates; sparse ids get a rank map. It returns
// an error on duplicate objects.
func listColumns(objs []ObjectID, grades []Grade) (*List, error) {
	for i, g := range grades {
		if !(g >= 0 && g <= 1) {
			return nil, fmt.Errorf("model: object %d has grade %v, outside [0, 1]", objs[i], g)
		}
	}
	l := &List{objs: objs, grades: grades}
	if len(objs) == 0 {
		return l, nil
	}
	lo, hi := objs[0], objs[0]
	for _, obj := range objs[1:] {
		lo, hi = min(lo, obj), max(hi, obj)
	}
	// The span is computed unsigned so ids at both ends of the int range
	// cannot overflow it. A span below N-1 means a duplicate, which the
	// map path reports.
	if uint64(hi)-uint64(lo) == uint64(len(objs)-1) {
		byObj := make([]Grade, len(objs))
		filled := make([]uint64, (len(objs)+63)/64)
		for i, obj := range objs {
			at := int(obj - lo)
			if filled[at/64]&(1<<(at%64)) != 0 {
				return nil, fmt.Errorf("model: object %d appears twice in list", obj)
			}
			filled[at/64] |= 1 << (at % 64)
			byObj[at] = grades[i]
		}
		l.ra = &randomIndex{byObj: byObj, min: lo, p: 1}
		return l, nil
	}
	l.rank = make(map[ObjectID]int32, len(objs))
	for i, obj := range objs {
		if _, dup := l.rank[obj]; dup {
			return nil, fmt.Errorf("model: object %d appears twice in list", obj)
		}
		l.rank[obj] = int32(i)
	}
	return l, nil
}

// byGradeDesc sorts parallel columns descending by grade, ties by ascending
// ObjectID, without materializing row structs.
type byGradeDesc struct {
	objs   []ObjectID
	grades []Grade
}

func (s byGradeDesc) Len() int { return len(s.objs) }
func (s byGradeDesc) Less(i, j int) bool {
	if s.grades[i] != s.grades[j] {
		return s.grades[i] > s.grades[j]
	}
	return s.objs[i] < s.objs[j]
}
func (s byGradeDesc) Swap(i, j int) {
	s.objs[i], s.objs[j] = s.objs[j], s.objs[i]
	s.grades[i], s.grades[j] = s.grades[j], s.grades[i]
}

// newListFromColumns sorts the given columns in place (descending by grade,
// ties by ascending ObjectID) and assembles a List around them. It is the
// bulk construction path: builders produce columns directly and never
// materialize row entries.
func newListFromColumns(objs []ObjectID, grades []Grade) (*List, error) {
	sort.Sort(byGradeDesc{objs: objs, grades: grades})
	return listColumns(objs, grades)
}

// NewList builds a List from entries, sorting them descending by grade.
// Ties are ordered by ascending ObjectID so list layout is deterministic.
// It returns an error if an object appears twice or a grade lies outside
// [0, 1].
func NewList(entries []Entry) (*List, error) {
	objs := make([]ObjectID, len(entries))
	grades := make([]Grade, len(entries))
	for i, e := range entries {
		objs[i] = e.Object
		grades[i] = e.Grade
	}
	return newListFromColumns(objs, grades)
}

// NewListPresorted builds a List from entries that the caller asserts are
// already sorted descending by grade; the order is preserved exactly. This
// is needed for the paper's adversarial constructions, which place specific
// objects below all others of equal grade. It returns an error if a grade
// inversion, a duplicate object or a grade outside [0, 1] is found.
func NewListPresorted(entries []Entry) (*List, error) {
	objs := make([]ObjectID, len(entries))
	grades := make([]Grade, len(entries))
	for i, e := range entries {
		if i > 0 && grades[i-1] < e.Grade {
			return nil, fmt.Errorf("model: presorted list has inversion at position %d (%v < %v)", i, grades[i-1], e.Grade)
		}
		objs[i] = e.Object
		grades[i] = e.Grade
	}
	return listColumns(objs, grades)
}

// Len returns the number of entries in the list.
func (l *List) Len() int { return len(l.objs) }

// At returns the entry at sorted position pos (0 = highest grade).
func (l *List) At(pos int) Entry { return Entry{Object: l.objs[pos], Grade: l.grades[pos]} }

// AtN fills dst with the entries at consecutive sorted positions pos,
// pos+1, … and returns how many it wrote: min(len(dst), Len()-pos). It is
// the columnar batch read behind access.Source.SortedNextN — one bounds
// check and two column walks instead of a per-entry interface call.
func (l *List) AtN(pos int, dst []Entry) int {
	n := len(l.objs) - pos
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	objs := l.objs[pos : pos+n]
	grades := l.grades[pos : pos+n]
	for i := range objs {
		dst[i] = Entry{Object: objs[i], Grade: grades[i]}
	}
	return n
}

// GradeOf returns the grade of obj in this list, and whether it is present.
func (l *List) GradeOf(obj ObjectID) (Grade, bool) {
	if ra := l.ra; ra != nil {
		// Unsigned, so an id below min wraps past the column's end.
		i := uint64(obj) - uint64(ra.min)
		if i >= uint64(len(ra.byObj)) || (ra.p > 1 && int(i)%ra.p != ra.s) {
			return 0, false
		}
		return ra.byObj[i], true
	}
	i, ok := l.rank[obj]
	if !ok {
		return 0, false
	}
	return l.grades[i], true
}

// IDLayout reports the arithmetic id layout the list's random index holds:
// its objects are exactly first, first+stride, …, first+(Len()-1)·stride.
// A list over dense ids reports its smallest id and stride 1; shard s of a
// p-way Partition of one reports min+s and stride p. ok is false for
// sparse ids and for an empty list.
func (l *List) IDLayout() (first ObjectID, stride int, ok bool) {
	if ra := l.ra; ra != nil {
		return ra.min + ObjectID(ra.s), ra.p, true
	}
	return 0, 0, false
}

// RankOf returns the 0-based sorted position of obj, and whether present.
// It scans the list: only tests ask for positions.
func (l *List) RankOf(obj ObjectID) (int, bool) {
	for i, o := range l.objs {
		if o == obj {
			return i, true
		}
	}
	return 0, false
}

// Entries returns a copy of the list's entries in sorted order.
func (l *List) Entries() []Entry {
	out := make([]Entry, len(l.objs))
	for i := range out {
		out[i] = Entry{Object: l.objs[i], Grade: l.grades[i]}
	}
	return out
}

// Distinct reports whether all grades in the list are pairwise distinct
// (the per-list half of the paper's distinctness property).
func (l *List) Distinct() bool {
	for i := 1; i < len(l.grades); i++ {
		if l.grades[i] == l.grades[i-1] {
			return false
		}
	}
	return true
}

// Database is m sorted lists over a common set of N objects. Every object
// appears in every list (the paper's model: each list has length N).
type Database struct {
	lists   []*List
	objects []ObjectID // all object ids, ascending
	names   map[ObjectID]string
}

// NewDatabase assembles a database from lists, verifying that the lists
// are non-empty and every list contains exactly the same object set.
func NewDatabase(lists []*List) (*Database, error) {
	if len(lists) == 0 {
		return nil, fmt.Errorf("model: database needs at least one list")
	}
	n := lists[0].Len()
	if n == 0 {
		return nil, fmt.Errorf("model: database lists are empty")
	}
	for i, l := range lists {
		if l.Len() != n {
			return nil, fmt.Errorf("model: list %d has %d entries, want %d", i, l.Len(), n)
		}
	}
	objs := make([]ObjectID, n)
	if ra := lists[0].ra; ra.full() {
		for i := range objs {
			objs[i] = ra.min + ObjectID(i)
		}
	} else {
		copy(objs, lists[0].objs)
		slices.Sort(objs)
	}
	for i := 1; i < len(lists); i++ {
		if ra := lists[i].ra; ra.full() && lists[0].ra.full() && ra.min == lists[0].ra.min {
			continue // two full columns over one range hold the same objects
		}
		for _, obj := range objs {
			if _, ok := lists[i].GradeOf(obj); !ok {
				return nil, fmt.Errorf("model: object %d missing from list %d", obj, i)
			}
		}
	}
	return &Database{lists: lists, objects: objs}, nil
}

// M returns the number of lists (attributes).
func (d *Database) M() int { return len(d.lists) }

// N returns the number of objects.
func (d *Database) N() int { return len(d.objects) }

// List returns list i (0-based).
func (d *Database) List(i int) *List { return d.lists[i] }

// Objects returns all object ids in ascending order (shared slice; do not
// modify).
func (d *Database) Objects() []ObjectID { return d.objects }

// Grades returns obj's grade vector across all lists. It panics if obj is
// not in the database, which cannot happen for ids from Objects.
func (d *Database) Grades(obj ObjectID) []Grade {
	gs := make([]Grade, len(d.lists))
	for i, l := range d.lists {
		g, ok := l.GradeOf(obj)
		if !ok {
			panic(fmt.Sprintf("model: object %d missing from list %d", obj, i))
		}
		gs[i] = g
	}
	return gs
}

// Distinct reports whether the database satisfies the paper's distinctness
// property: within each list, no two objects share a grade.
func (d *Database) Distinct() bool {
	for _, l := range d.lists {
		if !l.Distinct() {
			return false
		}
	}
	return true
}
