package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	sp := func(id, parent uint64, layer string, start, end int64) span {
		return span{Trace: 1, ID: id, Parent: parent, Layer: layer, Start: start * ms, End: end * ms}
	}
	spans := []span{
		sp(1, 0, "acebench", 0, 100),
		sp(2, 1, "server", 10, 40),
		sp(3, 1, "server", 30, 60),   // overlaps its sibling
		sp(4, 1, "cluster", 90, 120), // runs past its parent
		sp(5, 2, "store", 15, 25),
	}
	want := map[string]float64{"acebench": 40, "server": 50, "store": 10, "cluster": 30}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for l, w := range want {
		if !near(got[l], w) {
			t.Errorf("self time of %s = %v ms, want %v", l, got[l], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	id, end := off.begin(0, 0, "vm", "x")
	end()
	off.record(0, 0, "vm", "x", time.Now(), time.Now())
	if id != 0 || off.collected() != nil {
		t.Fatal("a nil tracer recorded something")
	}

	tr := newTracer(3)
	root, endRoot := tr.begin(0, 0, "acebench", "op")
	child, endChild := tr.begin(root, root, "server", "server.submit")
	endChild()
	endRoot()
	spans := tr.collected()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if r := byID[root]; r.Trace != root || r.Parent != 0 {
		t.Errorf("root span %+v: want its own trace and no parent", r)
	}
	if c := byID[child]; c.Trace != root || c.Parent != root || c.End < c.Start {
		t.Errorf("child span %+v: want trace and parent %d", c, root)
	}
	if other, _ := newTracer(4).begin(0, 0, "vm", "x"); other == root || other == child {
		t.Error("span IDs of two children collide")
	}
}
