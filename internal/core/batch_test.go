package core

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/workload"
)

// syncCursors advances the single-step cursor by the number of rounds the
// batched cursor just completed, one StepN(1) round at a time, so both sit
// at the same depth.
func syncCursors(t *testing.T, single *NRACursor, rounds int) {
	t.Helper()
	for j := 0; j < rounds; j++ {
		if single.StepN(1) != 1 {
			t.Fatalf("single-step cursor exhausted %d rounds early", rounds-j)
		}
	}
}

// cursorViewSnapshot copies a CursorView's reused TopK backing so views
// from two cursors can be compared after further stepping.
func cursorViewSnapshot(v CursorView) CursorView {
	v.TopK = append([]Scored(nil), v.TopK...)
	return v
}

// TestStepNMatchesStep is the batched-cursor equivalence property: for any
// budget, StepN(budget) must leave the cursor in exactly the state budget
// single-round StepN(1) calls produce — same views (intervals, threshold, OutsideB), same
// depth, same halting answers, same exhaustion point and same access
// statistics. The batched engine's correctness argument reduces to this.
func TestStepNMatchesStep(t *testing.T) {
	for _, budget := range []int{2, 3, 7, 16, 64} {
		db, err := workload.IndependentUniform(workload.Spec{N: 300, M: 3, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		tf := agg.Avg(3)
		srcA := access.New(db, access.Policy{NoRandom: true})
		srcB := access.New(db, access.Policy{NoRandom: true})
		single, err := NewNRACursor(srcA, tf, 5, RescanEngine)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewNRACursor(srcB, tf, 5, RescanEngine)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rounds := batched.StepN(budget)
			if rounds == 0 {
				break
			}
			syncCursors(t, single, rounds)
			if single.Depth() != batched.Depth() {
				t.Fatalf("budget %d: depth diverged: %d vs %d", budget, single.Depth(), batched.Depth())
			}
			if single.Halted() != batched.Halted() {
				t.Fatalf("budget %d depth %d: halted diverged", budget, single.Depth())
			}
			sv := cursorViewSnapshot(single.View())
			bv := cursorViewSnapshot(batched.View())
			if !reflect.DeepEqual(sv, bv) {
				t.Fatalf("budget %d depth %d: views diverged:\nsingle: %+v\nbatch:  %+v", budget, single.Depth(), sv, bv)
			}
		}
		if single.StepN(1) != 0 {
			t.Fatalf("budget %d: single-step cursor not exhausted when batched one is", budget)
		}
		if !reflect.DeepEqual(srcA.Stats(), srcB.Stats()) {
			t.Fatalf("budget %d: stats diverged:\nsingle: %+v\nbatch:  %+v", budget, srcA.Stats(), srcB.Stats())
		}
		sr, br := single.Result(), batched.Result()
		if !reflect.DeepEqual(sr.Items, br.Items) {
			t.Fatalf("budget %d: results diverged:\nsingle: %+v\nbatch:  %+v", budget, sr.Items, br.Items)
		}
	}
}

// TestTABatchMatchesSingleStep pins the batched TA round loop to the
// single-step reference: identical answers, identical guarantee fields and
// identical stopping depth on uniform and Zipf workloads, for plain and
// strict stopping. Only the access statistics may differ, and only by
// prefetch overshoot: entries read into the final batch but never
// processed, at most m × (Batch-1) sorted accesses.
func TestTABatchMatchesSingleStep(t *testing.T) {
	const batch = 32
	for _, tc := range []struct {
		name   string
		strict bool
		zipf   bool
	}{
		{"plain-uniform", false, false},
		{"strict-uniform", true, false},
		{"strict-zipf", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := workload.Spec{N: 500, M: 3, Seed: 62}
			mdb, err := workload.IndependentUniform(spec)
			if tc.zipf {
				mdb, err = workload.Zipf(spec, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			tf := agg.Avg(3)
			singleTA := &TA{StrictStop: tc.strict}
			batchTA := &TA{StrictStop: tc.strict, Batch: batch}
			srcA := access.New(mdb, access.AllowAll)
			srcB := access.New(mdb, access.AllowAll)
			want, err := singleTA.Run(srcA, tf, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := batchTA.Run(srcB, tf, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Items, got.Items) {
				t.Fatalf("items diverged:\nsingle: %+v\nbatch:  %+v", want.Items, got.Items)
			}
			if want.Rounds != got.Rounds {
				t.Fatalf("stopping depth diverged: %d vs %d", want.Rounds, got.Rounds)
			}
			if want.GradesExact != got.GradesExact || want.Theta != got.Theta {
				t.Fatalf("guarantee diverged: %v/%v vs %v/%v", want.GradesExact, want.Theta, got.GradesExact, got.Theta)
			}
			ws, gs := want.Stats, got.Stats
			if gs.Sorted < ws.Sorted || gs.Sorted > ws.Sorted+3*(batch-1) {
				t.Fatalf("batch sorted count %d outside [%d, %d]", gs.Sorted, ws.Sorted, ws.Sorted+3*(batch-1))
			}
			if gs.Random != ws.Random {
				t.Fatalf("random count diverged: %d vs %d", gs.Random, ws.Random)
			}
		})
	}
}
