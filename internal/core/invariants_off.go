//go:build !invariants

package core

// invariantsEnabled gates the runtime assertion layer; see invariants_on.go.
const invariantsEnabled = false

func invariantViolated(format string, args ...any) {}
