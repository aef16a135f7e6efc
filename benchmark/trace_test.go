package main

import "testing"

// TestSelfTimes checks the arithmetic on a hand-built tree:
//
//	root   [0,100)
//	  a    [10,40)       children cover 20 of its 30
//	    a1 [10,20)
//	    a2 [15,30)       overlaps a1: counted once
//	  b    [50,70)
//	  c    [90,120)      reaches outside root: clipped to [90,100)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 10, End: 20},
		{ID: 4, Parent: 2, Name: "a2", Start: 15, End: 30},
		{ID: 5, Parent: 1, Name: "b", Start: 50, End: 70},
		{ID: 6, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	want := []int64{40, 10, 10, 15, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := layerTotals(spans)
	if r := lt["root"]; r.calls != 1 || r.ns != 100 || r.self != 40 {
		t.Errorf("root totals = %+v", *r)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin(0, "slide", 0)
	child := tr.begin(root, "engine.pump", 0)
	tr.end(child)
	tr.add(child, "core.merge", 0, tr.spans[child-1].Start, tr.spans[child-1].End)
	tr.end(root)
	if tr.spans[1].Parent != root || tr.spans[2].Parent != child {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	if self := selfTimes(tr.spans); self[1] != 0 {
		t.Errorf("pump fully covered by its stage span, self = %d", self[1])
	}
}
