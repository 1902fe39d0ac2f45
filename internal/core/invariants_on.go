//go:build invariants

package core

import "fmt"

// invariantsEnabled gates the runtime assertion layer. With the tag the
// checks run; without it the guarded blocks are dead code the compiler
// eliminates, so the release build pays nothing.
const invariantsEnabled = true

// invariantViolated panics with a core-prefixed message. Callers test the
// invariant first and call it only on failure, so a passing check boxes no
// message arguments. The invariants build is a debugging instrument: a
// violated invariant is a bug in the algorithms, not a recoverable
// condition.
func invariantViolated(format string, args ...any) {
	panic(fmt.Sprintf("core: invariant violated: "+format, args...))
}
