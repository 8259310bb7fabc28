package main

import "testing"

func TestSpanSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		// Two children overlapping on [30,40): they cover [10,60) = 50.
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		// A child running past its parent is clipped: covers [90,100).
		{Name: "c", Start: 90, End: 130, Parent: 0},
		// A grandchild takes from its own parent only.
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
		// A second root with no children keeps all its time.
		{Name: "request", Start: 200, End: 250, Parent: -1},
	}
	total, self := spanTotals(spans)
	for name, want := range map[string]int64{"request": 150, "a": 30, "b": 30, "c": 40, "leaf": 8} {
		if total[name] != want {
			t.Errorf("total[%s] = %d, want %d", name, total[name], want)
		}
	}
	for name, want := range map[string]int64{
		"request": (100 - 50 - 10) + 50,
		"a":       30 - 8,
		"b":       30,
		"c":       40,
		"leaf":    8,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	s := r.begin("x", -1, 1)
	r.end(s)
	if s != -1 || len(r.spans) != 0 {
		t.Fatalf("disabled recorder returned %d and kept %d spans", s, len(r.spans))
	}
	r.on = true
	s = r.begin("x", -1, 1)
	r.end(s)
	if len(r.spans) != 1 || r.spans[0].End < r.spans[0].Start {
		t.Fatalf("enabled recorder kept %+v", r.spans)
	}
}
