package model

import "fmt"

// Partition splits the database into p object-disjoint shards. Objects are
// assigned round-robin over the ascending ObjectID order, so shard sizes
// differ by at most one; each shard's lists are the original sorted lists
// filtered to the shard's objects, preserving their relative order exactly
// (including within-tie placement). The union of the shards is the original
// database, and a top-k query over the database equals the k best of the
// per-shard top-k answers merged by (grade, ObjectID) — the property the
// sharded engine relies on.
//
// The shards are columnar views, not copies of rows: for each parent list,
// one pair of backing columns is allocated and the parent's entries are
// scattered into it shard-contiguously in a single stable pass, so every
// shard list is a plain slice of that shared backing. When the parent's
// object ids are dense (min, min+1, …, min+N-1 — true for all generated
// workloads), each shard list answers random access from its parent list's
// own grade column: membership is the residue check (obj-min) % p == s and
// the grade is one array read, so partitioning builds no index at all.
// Sparse id spaces (e.g. hand-edited CSV input) fall back to per-shard rank
// maps.
//
// p must be at least 1; a p exceeding the number of objects is clamped to
// it, so no shard is ever empty. Object names (AddNamed) carry over.
func (d *Database) Partition(p int) ([]*Database, error) {
	if p < 1 {
		return nil, fmt.Errorf("model: partition count must be positive, got %d", p)
	}
	n := len(d.objects)
	if p > n {
		p = n
	}

	// Dense ids make shard membership computable from the id alone, and
	// every parent list then carries the grade column its shards share.
	dense := true
	for _, l := range d.lists {
		dense = dense && l.ra.full()
	}
	min := d.objects[0]
	var shardOf map[ObjectID]int
	if !dense {
		shardOf = make(map[ObjectID]int, n)
		for i, obj := range d.objects {
			shardOf[obj] = i % p
		}
	}
	shard := func(obj ObjectID) int {
		if dense {
			return int(obj-min) % p
		}
		return shardOf[obj]
	}

	// Shard sizes under round-robin assignment, and each shard's offset into
	// the shared backing columns.
	sizes := make([]int, p)
	offs := make([]int, p+1)
	for s := 0; s < p; s++ {
		sizes[s] = (n - s + p - 1) / p
		offs[s+1] = offs[s] + sizes[s]
	}

	// Scatter the ascending object ids shard-contiguously (round-robin
	// striding keeps each shard's slice ascending).
	objBacking := make([]ObjectID, n)
	cursor := make([]int, p)
	for i, obj := range d.objects {
		s := i % p
		objBacking[offs[s]+cursor[s]] = obj
		cursor[s]++
	}

	shardLists := make([][]*List, p)
	for s := 0; s < p; s++ {
		shardLists[s] = make([]*List, len(d.lists))
	}
	for j, l := range d.lists {
		// One stable pass over the parent columns: scatter each entry to its
		// shard's region of the shared backing, recording per-shard ranks
		// for sparse ids as we go. Stability preserves within-tie order, so
		// each shard list is an exact subsequence of the parent.
		objs := make([]ObjectID, n)
		grades := make([]Grade, n)
		var ranks []map[ObjectID]int32
		if !dense {
			ranks = make([]map[ObjectID]int32, p)
			for s := 0; s < p; s++ {
				ranks[s] = make(map[ObjectID]int32, sizes[s])
			}
		}
		clear(cursor)
		for t := 0; t < n; t++ {
			obj := l.objs[t]
			s := shard(obj)
			at := cursor[s]
			objs[offs[s]+at] = obj
			grades[offs[s]+at] = l.grades[t]
			if !dense {
				ranks[s][obj] = int32(at)
			}
			cursor[s] = at + 1
		}
		for s := 0; s < p; s++ {
			sl := &List{
				objs:   objs[offs[s]:offs[s+1]],
				grades: grades[offs[s]:offs[s+1]],
			}
			if dense {
				sl.ra = &randomIndex{byObj: l.ra.byObj, min: min, p: p, s: s}
			} else {
				sl.rank = ranks[s]
			}
			shardLists[s][j] = sl
		}
	}

	shards := make([]*Database, p)
	for s := 0; s < p; s++ {
		db := &Database{lists: shardLists[s], objects: objBacking[offs[s]:offs[s+1]]}
		if d.names != nil {
			db.names = make(map[ObjectID]string)
			for _, obj := range db.objects {
				if name, ok := d.names[obj]; ok {
					db.names[obj] = name
				}
			}
		}
		shards[s] = db
	}
	return shards, nil
}
