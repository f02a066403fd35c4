package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"acedo/internal/isa"
	"acedo/internal/machine"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Reconfigure("L1D", 32*1024, 1000))
	s.Emit(Promotion("loop", 2000))
	s.Emit(Event{Type: TypeInterval, Instr: 3000, Interval: &IntervalMetrics{
		Seq: 1, Instr: 3000, Cycles: 4000, IPC: 0.75,
		Settings: map[string]int{"L1D": 32 * 1024, "L2": 1024 * 1024},
	}})
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unmarshal %q: %v", sc.Text(), err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Type != TypeReconfigure || events[0].Reconfigure.Unit != "L1D" ||
		events[0].Reconfigure.Setting != 32*1024 || events[0].Instr != 1000 {
		t.Errorf("reconfigure event mangled: %+v", events[0])
	}
	if events[1].Promotion.Method != "loop" {
		t.Errorf("promotion event mangled: %+v", events[1])
	}
	if events[2].Interval.Settings["L2"] != 1024*1024 {
		t.Errorf("interval event mangled: %+v", events[2])
	}
}

func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Emit(Promotion("m", uint64(i)))
			}
		}()
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != goroutines*per {
		t.Fatalf("got %d lines, want %d", lines, goroutines*per)
	}
	// Every line must still be valid JSON (no interleaving).
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt line %q: %v", sc.Text(), err)
		}
	}
}

func TestMultiAndLabels(t *testing.T) {
	var a, b Buffer
	s := WithRunLabels(Multi(&a, nil, &b), "compress", "hotspot")
	s.Emit(Reconfigure("L2", 512*1024, 5))
	for _, sink := range []*Buffer{&a, &b} {
		evs := sink.Events()
		if len(evs) != 1 {
			t.Fatalf("got %d events, want 1", len(evs))
		}
		if evs[0].Bench != "compress" || evs[0].Scheme != "hotspot" {
			t.Errorf("labels not stamped: %+v", evs[0])
		}
	}
	if Multi() == nil {
		t.Error("Multi() with no sinks should still be usable")
	}
	Multi().Emit(Promotion("x", 1)) // must not panic
}

func TestEventValidate(t *testing.T) {
	if err := (Event{Type: TypeReconfigure}).Validate(); err == nil {
		t.Error("missing payload not caught")
	}
	if err := (Event{Type: "bogus"}).Validate(); err == nil {
		t.Error("unknown type not caught")
	}
	if err := Promotion("m", 1).Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
}

func TestSamplerEmitsPerInterval(t *testing.T) {
	m := machine.MustNew(machine.PaperConfig(10))
	var buf Buffer
	s, err := NewSampler(&buf, m, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the machine for 10 intervals' worth of instructions with
	// block-grain notifications, mimicking the engine.
	const blocks, perBlock = 2500, 4
	for i := 0; i < blocks; i++ {
		line := (isa.IBase + uint64(i%32)*4*isa.InstrBytes) &^ (isa.ILineBytes - 1)
		m.FetchLines(line, line) // a 4-instruction block at pc 4k sits in one line
		m.Issue(perBlock)
		s.OnBlock(uint64(i%32)*4, perBlock)
	}
	s.Final()

	total := m.Instructions()
	wantMin := int(total / 1000)
	got := buf.Count(TypeInterval)
	if got < wantMin {
		t.Fatalf("got %d interval samples for %d instructions (interval 1000), want >= %d",
			got, total, wantMin)
	}

	var sumInstr uint64
	var lastSeq uint64
	for _, e := range buf.Events() {
		iv := e.Interval
		if iv.Seq != lastSeq+1 {
			t.Fatalf("seq gap: got %d after %d", iv.Seq, lastSeq)
		}
		lastSeq = iv.Seq
		sumInstr += iv.Instr
		if iv.Settings["L1D"] == 0 || iv.Settings["L2"] == 0 {
			t.Fatalf("missing settings: %+v", iv)
		}
		if iv.L1DMissRate < 0 || iv.L1DMissRate > 1 || iv.L2MissRate < 0 || iv.L2MissRate > 1 {
			t.Fatalf("miss rate out of range: %+v", iv)
		}
	}
	// Interval deltas must partition the run exactly.
	if sumInstr != total {
		t.Fatalf("interval instr deltas sum to %d, want %d", sumInstr, total)
	}
}

func TestSamplerRejectsBadArgs(t *testing.T) {
	m := machine.MustNew(machine.PaperConfig(10))
	var buf Buffer
	if _, err := NewSampler(nil, m, 100); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := NewSampler(&buf, nil, 100); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := NewSampler(&buf, m, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestSamplerFinalOnlyWhenPending(t *testing.T) {
	m := machine.MustNew(machine.PaperConfig(10))
	var buf Buffer
	s, err := NewSampler(&buf, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Final() // nothing retired: no event
	if n := buf.Count(""); n != 0 {
		t.Fatalf("got %d events before any instructions, want 0", n)
	}
	m.Issue(50)
	s.Final()
	s.Final() // second call: nothing new
	if n := buf.Count(TypeInterval); n != 1 {
		t.Fatalf("got %d interval events, want 1", n)
	}
}
