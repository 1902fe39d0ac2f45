package access

import "repro/internal/model"

// memoTable is the Cache's random-access memo: a bounded LRU map from
// (list, object) to the grade a probe returned, absence included. Items
// live in one flat slice and are chained in recency order through int32
// item numbers, with item 0 as the chain's sentinel (items[0].next is the
// most recently used item, items[0].prev the eviction victim). An
// open-addressed index finds them: a power-of-two slice of item numbers
// probed linearly from the key's home slot, 0 marking an empty slot.
// Deletion shifts the rest of the probe run back (no tombstones), the
// index doubles whenever it would pass half full, and a full memo reuses
// its victim's item, so the table grows with the probes actually stored —
// never in proportion to the bound up front — and allocates nothing once
// it is full.
//
// The table is not internally synchronised; the owning Cache calls it
// with its mutex held.
type memoTable struct {
	items []memoItem // items[0] is the recency chain's sentinel
	index []int32    // item numbers by slot; 0 marks an empty slot
	shift uint       // 64 − log2(len(index)): a hash's top bits pick the home slot
	cap   int        // the memo bound, clamped to memoMaxItems
}

// memoItem is one memoized probe and its links in the recency chain.
type memoItem struct {
	obj        model.ObjectID
	grade      model.Grade
	list       int32
	ok         bool
	prev, next int32
}

// memoMaxItems caps the bound so item numbers and index slots fit an
// int32; a memo that large would hold 32 GiB of items, far beyond any
// configured cache.
const memoMaxItems = 1 << 30

func newMemoTable(bound int) memoTable {
	m := memoTable{items: make([]memoItem, 1), cap: min(bound, memoMaxItems)}
	m.grow()
	return m
}

// len returns the number of memoized probes.
func (m *memoTable) len() int { return len(m.items) - 1 }

// home returns the index slot a key's probe run starts at: Fibonacci
// hashing, whose top bits spread dense and strided object ids alike.
func (m *memoTable) home(list int32, obj model.ObjectID) uint64 {
	return ((uint64(obj) ^ uint64(list)<<40) * 0x9e3779b97f4a7c15) >> m.shift
}

// find returns the number of the item memoizing (list, obj), or 0 when
// the memo holds no such probe.
func (m *memoTable) find(list int32, obj model.ObjectID) int32 {
	mask := uint64(len(m.index) - 1)
	i := m.home(list, obj)
	for n := uint64(0); ; n++ {
		e := m.index[i]
		if e == 0 {
			return 0
		}
		if it := &m.items[e]; it.obj == obj && it.list == list {
			return e
		}
		if invariantsEnabled && n > mask {
			invariantViolated("memo index has no empty slot (%d slots)", len(m.index))
		}
		i = (i + 1) & mask
	}
}

// touch moves item e to the front of the recency chain.
func (m *memoTable) touch(e int32) {
	if m.items[0].next != e {
		m.unlink(e)
		m.pushFront(e)
	}
}

// unlink takes item e out of the recency chain.
func (m *memoTable) unlink(e int32) {
	its := m.items
	p, n := its[e].prev, its[e].next
	its[p].next, its[n].prev = n, p
}

// pushFront links the unlinked item e in as the most recently used.
func (m *memoTable) pushFront(e int32) {
	its := m.items
	h := its[0].next
	its[e].prev, its[e].next = 0, h
	its[h].prev, its[0].next = e, e
}

// add memoizes a probe the table does not hold. A full memo evicts its
// least recently used item and reuses it for the new probe; otherwise the
// probe is appended, the index doubling first if it would pass half full.
func (m *memoTable) add(list int32, obj model.ObjectID, g model.Grade, ok bool) {
	var e int32
	if m.len() >= m.cap {
		e = m.items[0].prev
		m.unlink(e)
		m.unindex(e)
	} else {
		if 2*(m.len()+1) > len(m.index) {
			m.grow()
		}
		m.items = append(m.items, memoItem{})
		e = int32(m.len())
	}
	m.items[e] = memoItem{obj: obj, grade: g, list: list, ok: ok}
	m.pushFront(e)
	m.place(e)
}

// place puts item e in the first empty slot of its probe run.
func (m *memoTable) place(e int32) {
	mask := uint64(len(m.index) - 1)
	i := m.home(m.items[e].list, m.items[e].obj)
	for m.index[i] != 0 {
		i = (i + 1) & mask
	}
	m.index[i] = e
}

// grow doubles the index (or makes its first two slots) and re-places
// every item.
func (m *memoTable) grow() {
	size := max(2*len(m.index), 2)
	m.index = make([]int32, size)
	m.shift = 64
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	for e := 1; e < len(m.items); e++ {
		m.place(int32(e))
	}
}

// unindex removes item e from the index by backward-shift deletion: each
// later item of the probe run moves into the hole when the hole lies
// between its home slot and its current one, so every remaining item
// stays reachable from its home and no tombstone is left behind.
func (m *memoTable) unindex(e int32) {
	mask := uint64(len(m.index) - 1)
	hole := m.home(m.items[e].list, m.items[e].obj)
	for n := uint64(0); m.index[hole] != e; n++ {
		if invariantsEnabled && (m.index[hole] == 0 || n > mask) {
			invariantViolated("memo index lost item %d (list %d, object %d)", e, m.items[e].list, m.items[e].obj)
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		f := m.index[j]
		if h := m.home(m.items[f].list, m.items[f].obj); (j-h)&mask >= (j-hole)&mask {
			m.index[hole] = f
			hole = j
		}
	}
	m.index[hole] = 0
}
