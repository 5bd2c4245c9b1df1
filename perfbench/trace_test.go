package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "read", Start: 0, End: 100},
		// Nested: 2 inside 1, 3 inside 2.
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "inner", Start: 20, End: 30},
		// Overlapping siblings under 1: [50,80) overlaps [10,60) by 10.
		{ID: 4, Parent: 1, Name: "call", Start: 50, End: 80},
		// A child that outlives its parent is clipped to the parent.
		{ID: 5, Name: "dml", Start: 200, End: 250},
		{ID: 6, Parent: 5, Name: "exec", Start: 240, End: 300},
		// A child wholly inside an earlier, longer sibling adds nothing.
		{ID: 7, Name: "root", Start: 400, End: 500},
		{ID: 8, Parent: 7, Name: "a", Start: 400, End: 490},
		{ID: 9, Parent: 7, Name: "b", Start: 410, End: 420},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 70, // children cover [10,80)
		2: 50 - 10,
		3: 10,
		4: 30,
		5: 50 - 10, // only [240,250) of the child lies inside
		6: 60,
		7: 100 - 90,
		8: 90,
		9: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if c := sum["call"]; c.Count != 2 || c.TotNs != 80 || c.SelfNs != 70 {
		t.Errorf("summary of call = %+v, want count 2, total 80, self 70", c)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id, end := none.begin("x", 1, 0); id != 0 {
		t.Error("nil recorder returned a span id")
	} else {
		end()
	}
	r := newRecorder()
	root, endRoot := r.begin("read", 7, 0)
	_, endChild := r.begin("call", 7, root)
	endChild()
	endRoot()
	spans := r.all()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Stmt != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
		if s.Name == "call" && s.Parent != root {
			t.Errorf("child parent = %d, want %d", s.Parent, root)
		}
	}
}
