package model

import (
	"fmt"
	"sort"
)

// Builder assembles a Database row by row: one call per object with its full
// grade vector. It is the convenient construction path for examples, tests
// and generators; adversarial constructions that need exact within-tie list
// order use NewListPresorted directly. Build rejects a grade outside
// [0, 1], as every list constructor does.
type Builder struct {
	m          int
	rows       map[ObjectID][]Grade
	order      []ObjectID
	catalog    map[ObjectID]string
	nextAnonID ObjectID
}

// NewBuilder creates a Builder for databases with m attributes.
func NewBuilder(m int) *Builder {
	return &Builder{
		m:       m,
		rows:    make(map[ObjectID][]Grade),
		catalog: make(map[ObjectID]string),
	}
}

// Add records object obj with the given grade vector. It returns an error
// on arity mismatch or duplicate object; Build checks the grades.
func (b *Builder) Add(obj ObjectID, grades ...Grade) error {
	if len(grades) != b.m {
		return fmt.Errorf("model: object %d has %d grades, want %d", obj, len(grades), b.m)
	}
	if _, dup := b.rows[obj]; dup {
		return fmt.Errorf("model: object %d added twice", obj)
	}
	gs := make([]Grade, len(grades))
	copy(gs, grades)
	b.rows[obj] = gs
	b.order = append(b.order, obj)
	if obj >= b.nextAnonID {
		b.nextAnonID = obj + 1
	}
	return nil
}

// AddNamed records a named object, assigning it the next free ObjectID.
func (b *Builder) AddNamed(name string, grades ...Grade) (ObjectID, error) {
	id := b.nextAnonID
	if err := b.Add(id, grades...); err != nil {
		return 0, err
	}
	b.catalog[id] = name
	return id, nil
}

// MustAdd is Add that panics on error; intended for literals in tests and
// example programs where the input is statically correct.
func (b *Builder) MustAdd(obj ObjectID, grades ...Grade) {
	if err := b.Add(obj, grades...); err != nil {
		panic(err)
	}
}

// Len returns the number of objects added so far.
func (b *Builder) Len() int { return len(b.order) }

// Build assembles the Database. Ties within a list are ordered by ascending
// ObjectID (deterministic).
func (b *Builder) Build() (*Database, error) {
	if len(b.rows) == 0 {
		return nil, fmt.Errorf("model: no objects added")
	}
	lists := make([]*List, b.m)
	for i := 0; i < b.m; i++ {
		objs := make([]ObjectID, 0, len(b.rows))
		grades := make([]Grade, 0, len(b.rows))
		for _, obj := range b.order {
			objs = append(objs, obj)
			grades = append(grades, b.rows[obj][i])
		}
		l, err := newListFromColumns(objs, grades)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	db, err := NewDatabase(lists)
	if err != nil {
		return nil, err
	}
	if len(b.catalog) > 0 {
		db.names = make(map[ObjectID]string, len(b.catalog))
		for id, name := range b.catalog {
			db.names[id] = name
		}
	}
	return db, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Database {
	db, err := b.Build()
	if err != nil {
		panic(err)
	}
	return db
}

// Name returns the human-readable name of obj if one was registered via
// AddNamed, else a synthesized "obj<N>" label.
func (d *Database) Name(obj ObjectID) string {
	if d.names != nil {
		if n, ok := d.names[obj]; ok {
			return n
		}
	}
	return fmt.Sprintf("obj%d", obj)
}

// FromRows builds a database from parallel slices: ids[i] has grade
// rows[i][j] in list j. It is the bulk path used by workload generators.
func FromRows(m int, ids []ObjectID, rows [][]Grade) (*Database, error) {
	if len(ids) != len(rows) {
		return nil, fmt.Errorf("model: %d ids but %d rows", len(ids), len(rows))
	}
	lists := make([]*List, m)
	for j := 0; j < m; j++ {
		objs := make([]ObjectID, len(ids))
		grades := make([]Grade, len(ids))
		for i, id := range ids {
			if len(rows[i]) != m {
				return nil, fmt.Errorf("model: row %d has %d grades, want %d", i, len(rows[i]), m)
			}
			objs[i] = id
			grades[i] = rows[i][j]
		}
		l, err := newListFromColumns(objs, grades)
		if err != nil {
			return nil, err
		}
		lists[j] = l
	}
	return NewDatabase(lists)
}

// TopKByGrade computes the exact top-k objects of db under overall grades
// provided by score (typically an aggregation closure), using full knowledge
// of the database. It is the ground truth oracle for tests: the returned
// slice is sorted by descending grade with ties broken by ascending id.
func TopKByGrade(db *Database, k int, score func(grades []Grade) Grade) []Entry {
	all := make([]Entry, 0, db.N())
	for _, obj := range db.Objects() {
		all = append(all, Entry{Object: obj, Grade: score(db.Grades(obj))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Grade != all[j].Grade {
			return all[i].Grade > all[j].Grade
		}
		return all[i].Object < all[j].Object
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
