//go:build invariants

package access

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// TestMemoCorruptIndexPanics checks that, with the assertion layer
// compiled in, a memo index walk that cannot find what it must panics
// instead of spinning: an eviction whose victim is missing from the index
// (its slot emptied, or every slot taken by other items), and a lookup in
// an index with no empty slot left to end the probe run.
func TestMemoCorruptIndexPanics(t *testing.T) {
	full := func(m *memoTable) {
		for i := range m.index {
			m.index[i] = m.items[0].next
		}
	}
	cases := []struct {
		name    string
		corrupt func(m *memoTable)
		walk    func(m *memoTable)
	}{
		{"victim slot emptied", func(m *memoTable) {
			for i, e := range m.index {
				if e == m.items[0].prev {
					m.index[i] = 0
				}
			}
		}, func(m *memoTable) { m.add(0, 99, 0.5, true) }},
		{"victim slot overwritten", full, func(m *memoTable) { m.add(0, 99, 0.5, true) }},
		{"lookup in a full index", full, func(m *memoTable) { m.find(0, 99) }},
	}
	for _, tc := range cases {
		m := newMemoTable(4)
		for obj := 1; obj <= 4; obj++ {
			m.add(1, model.ObjectID(obj), 0.5, true)
		}
		tc.corrupt(&m)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			tc.walk(&m)
		}()
		select {
		case r := <-done:
			if msg, _ := r.(string); !strings.Contains(msg, "invariant violated") {
				t.Fatalf("%s: walk ended with %v, want an invariant panic", tc.name, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: walk still running after 10s", tc.name)
		}
	}
}
