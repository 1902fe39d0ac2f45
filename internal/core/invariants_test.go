//go:build invariants

package core

import (
	"strings"
	"testing"
)

// TestInvariantViolatedFires proves the invariants build actually panics
// on a violated condition — guarding against the assertion layer silently
// compiling to a no-op under the tag.
func TestInvariantViolatedFires(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invariantViolated did not panic under -tags invariants")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated: forced failure 42") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	if !invariantsEnabled {
		t.Fatal("invariantsEnabled is false under -tags invariants")
	}
	invariantViolated("forced failure %d", 42)
}

// TestReleasedTableAssertionsFire proves the invariants build catches a
// pooled table used after its owner released it: releasing it again, or
// learning into or draining it, panics with a core invariant message.
func TestReleasedTableAssertionsFire(t *testing.T) {
	for _, c := range []struct {
		name, want string
		use        func(tb *table)
	}{
		{"release", "bound table released twice", func(tb *table) { tb.release() }},
		{"learn", "learn on a released bound table", func(tb *table) { tb.learn(1, 0, 0.9) }},
		{"drainTop", "drainTop on a released bound table", func(tb *table) { tb.drainTop(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, _ := tableFor(t, 1, true)
			tb.release()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invariant violated: "+c.want) {
					t.Fatalf("%s after release: panic %q, want the %q invariant", c.name, msg, c.want)
				}
			}()
			c.use(tb)
		})
	}
}
