package access

// admitSketch is a TinyLFU-style frequency filter: a 4-bit count-min
// sketch with periodic halving (aging) behind a doorkeeper bloom filter.
// The cache consults it on every page touch and uses it at cold-tier
// admission time: a page demoted from the hot tier only displaces the
// minimum-frequency page of a sampled few cold residents when the sketch
// estimates the newcomer's access frequency above it. One-shot scan pages
// never accumulate frequency, so a deep scan cannot flush the
// repeat-heavy working set out of the cold tier.
//
// The doorkeeper absorbs one-hit wonders: an item's first occurrence in
// an epoch only sets a bloom bit, and only repeat occurrences reach the
// counters, so the 4-bit counters spend their tiny range on items seen
// at least twice. Aging halves every counter and clears the doorkeeper
// once the number of recorded touches reaches the sample period (10× the
// cache's entry capacity), keeping estimates a sliding window of
// recent popularity rather than an all-time count.
//
// The sketch is not internally synchronised; the owning Cache calls it
// with its mutex held.
type admitSketch struct {
	counters []byte   // two 4-bit counters per byte
	mask     uint64   // number of 4-bit counters - 1 (power of two)
	door     []uint64 // doorkeeper bloom bits
	doorMask uint64   // number of doorkeeper bits - 1 (power of two)
	adds     int      // touches recorded since the last aging epoch
	sample   int      // touches per epoch before counters halve
}

// newAdmitSketch sizes a sketch for a cache holding capacity pages of
// pageSize entries each. The counter table is 8× the page capacity
// rounded up to a power of two, which keeps count-min collisions rare at
// 4 probes per item. The aging sample period counts touches, and the
// cache touches once per entry read — not per page — so it scales with
// the entry capacity (10 × pages × pageSize): one epoch spans several
// full re-reads of the cached data, and a single deep scan cannot age
// the working set's frequency away before the scan ends. The caps
// (maxSketchPages, maxPageEntries) keep both from overflowing.
func newAdmitSketch(capacity, pageSize int) *admitSketch {
	if capacity < 16 {
		capacity = 16
	}
	if pageSize < 1 {
		pageSize = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	n *= 8
	return &admitSketch{
		counters: make([]byte, n/2),
		mask:     uint64(n - 1),
		door:     make([]uint64, n/64),
		doorMask: uint64(n - 1),
		sample:   10 * capacity * pageSize,
	}
}

// touch records one access to the item hashed to h. The first touch in
// an epoch only sets the doorkeeper bit; repeats increment the item's
// four count-min counters, saturating at 15. Reaching the sample period
// triggers aging.
func (s *admitSketch) touch(h uint64) {
	d := h & s.doorMask
	if s.door[d>>6]&(1<<(d&63)) == 0 {
		s.door[d>>6] |= 1 << (d & 63)
	} else {
		g := splitmix64(h)
		s.bump(h & s.mask)
		s.bump((h >> 32) & s.mask)
		s.bump(g & s.mask)
		s.bump((g >> 32) & s.mask)
	}
	s.adds++
	if s.adds >= s.sample {
		s.age()
	}
}

// estimate returns the sketch's frequency estimate for the item hashed
// to h: the minimum of its four counters, plus one when the doorkeeper
// has seen it this epoch.
func (s *admitSketch) estimate(h uint64) int {
	g := splitmix64(h)
	v := s.nibble(h & s.mask)
	if w := s.nibble((h >> 32) & s.mask); w < v {
		v = w
	}
	if w := s.nibble(g & s.mask); w < v {
		v = w
	}
	if w := s.nibble((g >> 32) & s.mask); w < v {
		v = w
	}
	d := h & s.doorMask
	if s.door[d>>6]&(1<<(d&63)) != 0 {
		v++
	}
	return v
}

// age halves every 4-bit counter in place, clears the doorkeeper and
// halves the recorded-touch count, so estimates decay geometrically and
// yesterday's hot pages must re-earn admission.
func (s *admitSketch) age() {
	for i := range s.counters {
		s.counters[i] = (s.counters[i] >> 1) & 0x77
	}
	for i := range s.door {
		s.door[i] = 0
	}
	s.adds /= 2
}

// nibble reads 4-bit counter idx.
func (s *admitSketch) nibble(idx uint64) int {
	b := s.counters[idx>>1]
	if idx&1 == 1 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// bump increments 4-bit counter idx, saturating at 15.
func (s *admitSketch) bump(idx uint64) {
	b := s.counters[idx>>1]
	if idx&1 == 1 {
		if b>>4 < 15 {
			s.counters[idx>>1] = b + 0x10
		}
		return
	}
	if b&0x0f < 15 {
		s.counters[idx>>1] = b + 1
	}
}

// pageHash maps a page key to the sketch's hash domain.
func pageHash(k pageKey) uint64 {
	return splitmix64(splitmix64(uint64(k.list)+1) + uint64(k.page))
}
