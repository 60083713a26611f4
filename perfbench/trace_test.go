package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	// op [0,100] ⊃ a [10,40] ⊃ a1 [15,20]; op ⊃ b [50,60].
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 60},
	}
	got := spanTimes(spans)
	for name, want := range map[string][2]int64{"op": {100, 60}, "a": {30, 25}, "a1": {5, 5}, "b": {10, 10}} {
		lt := got[name]
		if lt.Count != 1 || !nearNS(lt.Total, want[0]) || !nearNS(lt.Self, want[1]) {
			t.Errorf("%s: total %g self %g, want %d %d ns", name, lt.Total, lt.Self, want[0], want[1])
		}
	}
}

func TestSelfTimeParallelChildrenCountedOnce(t *testing.T) {
	// Three children of p run in parallel: [10,50] and [20,60] overlap,
	// [55,70] overlaps the second, [80,90] is apart and [95,120] runs past
	// the parent's end. Their union inside [0,100] is [10,70] ∪ [80,90] ∪
	// [95,100] = 75 ns, so p's self time is 25 ns.
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 55, End: 70},
		{ID: 5, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 6, Parent: 1, Name: "c", Start: 95, End: 120},
	}
	got := spanTimes(spans)
	if p := got["p"]; !nearNS(p.Self, 25) || !nearNS(p.Total, 100) {
		t.Errorf("parent: total %g self %g, want 100 and 25 ns", p.Total, p.Self)
	}
	if c := got["c"]; c.Count != 5 || !nearNS(c.Total, 40+40+15+10+25) {
		t.Errorf("children: %+v, want 5 spans totalling 130 ns", c)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 0, 7)
	if err := tr.timed("child", root, 7, func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 || spans[1].End < spans[1].Start {
		t.Fatalf("spans = %+v", spans)
	}
	lt := spanTimes(spans)
	if lt["op"].Self < 0 || lt["op"].Self > lt["op"].Total-lt["child"].Total+1e-12 {
		t.Errorf("op self %g, total %g, child %g", lt["op"].Self, lt["op"].Total, lt["child"].Total)
	}
	var untraced *tracer
	if id := untraced.start("op", 0, 1); id != 0 {
		t.Errorf("untraced start returned span %d", id)
	}
	untraced.end(0)
}

func nearNS(seconds float64, ns int64) bool {
	return math.Abs(seconds*1e9-float64(ns)) < 1e-6
}
