package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed harness→layer call. Spans of one operation share a
// trace ID; Parent names the span that caused this one (0 for a root).
// Times are wall-clock Unix nanoseconds, so spans from several child
// processes merge into one file.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// disarmed: begin returns a no-op and records nothing, so untraced runs
// pay one nil test per call site.
type tracer struct {
	base  uint64 // high bits that keep IDs unique across child processes
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newTracer returns an armed tracer whose span IDs carry the child
// index in their high bits.
func newTracer(child int) *tracer {
	return &tracer{base: uint64(child+1) << 40}
}

// begin opens a span and returns its ID and the function that closes
// it. A trace of 0 starts a new trace rooted at this span.
func (t *tracer) begin(trace, parent uint64, layer, name string) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.base | t.next.Add(1)
	if trace == 0 {
		trace = id
	}
	start := time.Now().UnixNano()
	return id, func() {
		s := span{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer,
			Start: start, End: time.Now().UnixNano()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// record adds a span whose interval the caller measured itself (for
// example the gap between two progress callbacks).
func (t *tracer) record(trace, parent uint64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.base | t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
}

// collected returns the spans recorded so far.
func (t *tracer) collected() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time in milliseconds: a span's
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of the child intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
