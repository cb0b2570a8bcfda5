package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50]; the third reaches past
		// the root and is clipped to [90, 100].
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},
		// A span never closed is ignored.
		{ID: 6, Parent: 1, Name: "open", Start: 60 * ms, End: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 50 * ms,       // 100 - 40 - 10
		"a":    20*ms + 20*ms, // 20, and 30 minus the grandchild's 10
		"b":    30 * ms,
		"c":    10 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span has a self time")
	}
	if got := largestShare(self, []string{"a", "b", "c"}); got != "a" {
		t.Errorf("largest share %q, want a", got)
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Unit != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v do not nest", spans)
	}
	if _, err := tr.write(t.TempDir(), "spans.jsonl"); err != nil {
		t.Fatal(err)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(1)
}
