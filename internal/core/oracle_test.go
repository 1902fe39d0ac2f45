package core

import (
	"errors"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
)

func TestScriptedChargesCosts(t *testing.T) {
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.8}, 2: {0.5, 0.6}, 3: {0.1, 0.2},
	})
	s := &Scripted{
		Label: "probe-two",
		Steps: []ScriptStep{
			SortedStep(0),
			RandomStep(1, 1),
			RandomStep(1, 2),
		},
		Answer: []Scored{{Object: 1, Grade: 0.8, Lower: 0.8, Upper: 0.8}},
	}
	res, err := s.Run(access.New(db, access.AllowAll), agg.Min(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sorted != 1 || res.Stats.Random != 2 {
		t.Fatalf("stats %d/%d, want 1/2", res.Stats.Sorted, res.Stats.Random)
	}
	if res.Items[0].Object != 1 {
		t.Fatalf("answer %v", res.Items)
	}
	if s.Name() != "Scripted(probe-two)" {
		t.Fatalf("Name = %q", s.Name())
	}
	if (&Scripted{}).Name() != "Scripted" {
		t.Fatalf("empty label Name = %q", (&Scripted{}).Name())
	}
}

func TestScriptedValidatesAnswerLength(t *testing.T) {
	db := buildDB(t, 1, map[model.ObjectID][]model.Grade{1: {0.5}, 2: {0.4}})
	s := &Scripted{Answer: []Scored{{Object: 1}}}
	if _, err := s.Run(access.New(db, access.AllowAll), agg.Min(1), 2); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
}

func TestScriptedRejectsBadList(t *testing.T) {
	db := buildDB(t, 1, map[model.ObjectID][]model.Grade{1: {0.5}, 2: {0.4}})
	s := &Scripted{
		Steps:  []ScriptStep{SortedStep(3)},
		Answer: []Scored{{Object: 1}},
	}
	if _, err := s.Run(access.New(db, access.AllowAll), agg.Min(1), 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Items: []Scored{
			{Object: 3, Grade: 0.9, Lower: 0.9, Upper: 0.9},
			{Object: 1, Grade: 0.5, Lower: 0.4, Upper: 0.6},
		},
		GradesExact: true,
		Stats:       access.Stats{Sorted: 4, Random: 2},
	}
	if ids := r.Objects(); ids[0] != 3 || ids[1] != 1 {
		t.Fatalf("Objects = %v", ids)
	}
	cm := access.CostModel{CS: 2, CR: 5}
	if got := r.Cost(cm); got != 4*2+2*5 {
		t.Fatalf("Cost = %v", got)
	}
	gm := r.GradeMultiset()
	if gm[0] != 0.9 || gm[1] != 0.5 {
		t.Fatalf("GradeMultiset = %v", gm)
	}
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
	r.GradesExact = false
	if s := r.String(); s == "" {
		t.Fatal("empty interval String()")
	}
}

func TestTopKHeapSemantics(t *testing.T) {
	h := NewTopKBuffer(2)
	if h.Full() {
		t.Fatal("empty heap reports full")
	}
	h.Offer(Scored{Object: 1, Grade: 0.5})
	h.Offer(Scored{Object: 2, Grade: 0.7})
	if !h.Full() || h.Kth() != 0.5 {
		t.Fatalf("heap %+v", h.items)
	}
	// Re-offering an existing object must not duplicate it.
	h.Offer(Scored{Object: 1, Grade: 0.5})
	if len(h.items) != 2 {
		t.Fatalf("duplicate inserted: %+v", h.items)
	}
	// A better candidate displaces the worst.
	h.Offer(Scored{Object: 3, Grade: 0.9})
	if h.Kth() != 0.7 || h.items[0].Object != 3 {
		t.Fatalf("heap after displacement: %+v", h.items)
	}
	// Equal grade: lower id wins the tie against the current worst.
	h.Offer(Scored{Object: 0, Grade: 0.7})
	if h.items[1].Object != 0 {
		t.Fatalf("tie-break failed: %+v", h.items)
	}
	// Worse candidates bounce off.
	h.Offer(Scored{Object: 9, Grade: 0.1})
	if len(h.items) != 2 || h.Kth() != 0.7 {
		t.Fatalf("heap accepted a worse candidate: %+v", h.items)
	}
	snap := h.Exact()
	for _, it := range snap {
		if it.Lower != it.Grade || it.Upper != it.Grade {
			t.Fatalf("Exact item %+v: want Lower = Upper = Grade", it)
		}
	}
	snap[0].Grade = 0
	if h.items[0].Grade == 0 {
		t.Fatal("snapshot aliases the heap")
	}
}

// corruptList drops an object from random access to exercise algorithm
// error paths (a subsystem failing to answer a probe it should serve).
type corruptList struct {
	access.ListSource
	missing model.ObjectID
}

func (c corruptList) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	if obj == c.missing {
		return 0, false
	}
	return c.ListSource.GradeOf(obj)
}

func TestTAFailsLoudlyOnBrokenSubsystem(t *testing.T) {
	db := buildDB(t, 2, map[model.ObjectID][]model.Grade{
		1: {0.9, 0.8}, 2: {0.5, 0.6}, 3: {0.1, 0.2},
	})
	src := access.FromLists([]access.ListSource{
		db.List(0),
		corruptList{ListSource: db.List(1), missing: 1},
	}, access.AllowAll)
	if _, err := (&TA{}).Run(src, agg.Min(2), 1); err == nil {
		t.Fatal("TA returned success despite a failed probe")
	}
}
