package bbv

import (
	"testing"

	"acedo/internal/machine"
	"acedo/internal/telemetry"
)

// flipDetector is a pathological phase detector: every interval is a
// different phase than the last — the thrashing behaviour a corrupted
// signature table produces.
type flipDetector struct{ n int }

func (d *flipDetector) Accumulate(pc uint64, instrs int, n uint64) {}
func (d *flipDetector) Boundary() int                              { d.n++; return d.n % 2 }
func (d *flipDetector) Name() string                               { return "flip" }

// driveIntervals advances the machine one sampling interval at a time
// and fires the manager's boundary logic.
func driveIntervals(m *Manager, mach *machine.Machine, intervals int) {
	for i := 0; i < intervals; i++ {
		mach.Issue(m.params.IntervalInstr)
		m.OnBlock(0, 1)
	}
}

// TestChaosOscillationWatchdogDegrades: a detector that changes phase
// every interval must trip the oscillation window, pin the safe
// configuration, emit exactly one TypeDegraded event, and stop
// adapting — while phase statistics keep accumulating.
func TestChaosOscillationWatchdogDegrades(t *testing.T) {
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(10)
	p.OscillationWindow = 6
	m, err := NewManagerWithDetector(p, mach, &flipDetector{})
	if err != nil {
		t.Fatal(err)
	}
	var buf telemetry.Buffer
	m.SetSink(&buf)

	driveIntervals(m, mach, 20)

	if !m.DegradedState() {
		t.Fatal("watchdog did not trip after 20 flipping intervals")
	}
	if got := buf.Count(telemetry.TypeDegraded); got != 1 {
		t.Errorf("TypeDegraded events = %d, want exactly 1", got)
	}
	for _, ev := range buf.Events() {
		if ev.Type != telemetry.TypeDegraded {
			continue
		}
		if ev.Degraded.Scope != "phase" {
			t.Errorf("scope = %q, want phase", ev.Degraded.Scope)
		}
		if ev.Degraded.Flips < p.OscillationWindow {
			t.Errorf("flips = %d, want ≥ window (%d)", ev.Degraded.Flips, p.OscillationWindow)
		}
	}
	// Pinned to the safe configuration: every unit at its largest
	// setting (combos[0] holds each unit's top setting index).
	for _, u := range m.units {
		if u.CurrentIndex() != u.NumSettings()-1 {
			t.Errorf("unit %s index = %d, want %d (largest)",
				u.Name(), u.CurrentIndex(), u.NumSettings()-1)
		}
	}
	rep := m.Report()
	if !rep.Degraded {
		t.Error("report must surface the degraded state")
	}
	if rep.Intervals != 20 {
		t.Errorf("intervals = %d, want 20 (classification continues)", rep.Intervals)
	}
}

// TestChaosOscillationWatchdogDisabled pins the zero value: window 0
// never degrades no matter how hard the detector thrashes.
func TestChaosOscillationWatchdogDisabled(t *testing.T) {
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(10)
	p.OscillationWindow = 0
	m, err := NewManagerWithDetector(p, mach, &flipDetector{})
	if err != nil {
		t.Fatal(err)
	}
	var buf telemetry.Buffer
	m.SetSink(&buf)
	driveIntervals(m, mach, 40)
	if m.DegradedState() {
		t.Error("watchdog disabled, manager must not degrade")
	}
	if got := buf.Count(telemetry.TypeDegraded); got != 0 {
		t.Errorf("TypeDegraded events = %d, want 0", got)
	}
}

// TestChaosStableRunsNeverTrip: a detector with healthy stable runs
// (phase changes separated by stable stretches) must never accumulate
// a flip streak, whatever the window.
func TestChaosStableRunsNeverTrip(t *testing.T) {
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(10)
	p.OscillationWindow = 3
	det := &stableDetector{runLen: 4}
	m, err := NewManagerWithDetector(p, mach, det)
	if err != nil {
		t.Fatal(err)
	}
	driveIntervals(m, mach, 60)
	if m.DegradedState() {
		t.Error("stable phase runs must not trip the watchdog")
	}
}

// stableDetector alternates phases in runs of runLen intervals.
type stableDetector struct{ n, runLen int }

func (d *stableDetector) Accumulate(pc uint64, instrs int, n uint64) {}
func (d *stableDetector) Boundary() int                              { d.n++; return (d.n / d.runLen) % 2 }
func (d *stableDetector) Name() string                               { return "stable" }
