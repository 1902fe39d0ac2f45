//go:build invariants

package repro_test

func init() { invariantsEnabled = true }
