package experiment

import (
	"bytes"
	"encoding/json"
	"testing"

	"acedo/internal/core"
	"acedo/internal/machine"
	"acedo/internal/telemetry"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

func shortSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return spec.WithMainLoops(4)
}

// TestReconfigureEventsMatchUnitStats is the telemetry layer's ledger
// check: every accepted configuration change — and nothing else — must
// appear in the event stream, so the reconfigure-event count equals
// the sum of ace.UnitStats.Applied across units. (Construction-time
// initial applies bypass Request and fire pre-boot, so neither side
// counts them.)
func TestReconfigureEventsMatchUnitStats(t *testing.T) {
	spec := shortSpec(t, "jess")
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	mach, err := machine.New(opt.Machine)
	if err != nil {
		t.Fatal(err)
	}
	var buf telemetry.Buffer
	mach.OnReconfigure = telemetry.MachineReconfigure(&buf)
	aos := vm.NewAOS(opt.VM, mach, prog)
	if _, err := core.NewManager(opt.Core, mach, aos); err != nil {
		t.Fatal(err)
	}
	eng, err := vm.NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}

	var applied uint64
	for _, u := range mach.Units() {
		applied += u.Stats().Applied
	}
	if applied == 0 {
		t.Fatal("hotspot run applied no reconfigurations; workload too short to test")
	}
	if got := uint64(buf.Count(telemetry.TypeReconfigure)); got != applied {
		t.Errorf("reconfigure events = %d, want %d (sum of UnitStats.Applied)", got, applied)
	}
}

// TestRunTelemetryHotspot drives the full experiment.Run wiring with a
// Buffer sink and checks the acceptance accounting: reconfiguration
// events match the timing model's count, promotions match the DO
// database, and the interval sampler produces at least one record per
// L1D reconfiguration interval.
func TestRunTelemetryHotspot(t *testing.T) {
	opt := DefaultOptions()
	var buf telemetry.Buffer
	opt.Sink = &buf
	res, err := Run(shortSpec(t, "jess"), SchemeHotspot, opt)
	if err != nil {
		t.Fatal(err)
	}

	if got := uint64(buf.Count(telemetry.TypeReconfigure)); got != res.Breakdown.Reconfigs {
		t.Errorf("reconfigure events = %d, want %d (Breakdown.Reconfigs)", got, res.Breakdown.Reconfigs)
	}
	if got := uint64(buf.Count(telemetry.TypePromotion)); got != res.AOS.Promotions {
		t.Errorf("promotion events = %d, want %d (AOS.Promotions)", got, res.AOS.Promotions)
	}
	if buf.Count(telemetry.TypeTuneStep) == 0 || buf.Count(telemetry.TypeTuned) == 0 {
		t.Error("hotspot run should emit tuner events (tune-step and tuned)")
	}

	wantIntervals := int(res.Instr / opt.Machine.L1DReconfigInterval)
	if wantIntervals == 0 {
		t.Fatalf("run too short: %d instructions", res.Instr)
	}
	if got := buf.Count(telemetry.TypeInterval); got < wantIntervals {
		t.Errorf("interval records = %d, want >= %d (one per reconfiguration interval)", got, wantIntervals)
	}

	for _, e := range buf.Events() {
		if e.Bench != "jess" || e.Scheme != "hotspot" {
			t.Fatalf("event missing run labels: %+v", e)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid event: %v", err)
		}
	}
}

// TestRunTelemetryBBV checks the temporal comparator's phase events
// flow through the same sink.
func TestRunTelemetryBBV(t *testing.T) {
	opt := DefaultOptions()
	var buf telemetry.Buffer
	opt.Sink = &buf
	res, err := Run(shortSpec(t, "compress"), SchemeBBV, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BBV == nil || res.BBV.Intervals == 0 {
		t.Fatal("BBV run produced no intervals")
	}
	if buf.Count(telemetry.TypePhase) == 0 {
		t.Error("BBV run should emit phase events")
	}
	if res.BBV.TunedPhases > 0 && buf.Count(telemetry.TypePhaseTuned) == 0 {
		t.Error("tuned phases should emit phase-tuned events")
	}
	if got := uint64(buf.Count(telemetry.TypeReconfigure)); got != res.Breakdown.Reconfigs {
		t.Errorf("reconfigure events = %d, want %d", got, res.Breakdown.Reconfigs)
	}
}

// TestSnapshotSchema pins the bench-snapshot JSON layout: version
// field, per-benchmark sections, and the headline keys downstream
// trajectory tooling reads.
func TestSnapshotSchema(t *testing.T) {
	opt := DefaultOptions()
	c, err := Compare(shortSpec(t, "compress"), opt)
	if err != nil {
		t.Fatal(err)
	}
	res := &SuiteResults{Options: opt, Comparisons: []*Comparison{c}}

	var out bytes.Buffer
	if err := res.Snapshot().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if v, ok := doc["schema_version"].(float64); !ok || int(v) != SnapshotSchemaVersion {
		t.Errorf("schema_version = %v, want %d", doc["schema_version"], SnapshotSchemaVersion)
	}
	if v, ok := doc["scale_div"].(float64); !ok || uint64(v) != opt.ScaleDiv {
		t.Errorf("scale_div = %v", doc["scale_div"])
	}
	benches, ok := doc["benchmarks"].([]any)
	if !ok || len(benches) != 1 {
		t.Fatalf("benchmarks = %v", doc["benchmarks"])
	}
	b := benches[0].(map[string]any)
	if b["name"] != "compress" {
		t.Errorf("benchmark name = %v", b["name"])
	}
	for _, section := range []string{"baseline", "bbv", "hotspot"} {
		run, ok := b[section].(map[string]any)
		if !ok {
			t.Fatalf("missing %s section", section)
		}
		for _, key := range []string{"instr", "cycles", "ipc", "l1d_energy_nj", "l2_energy_nj", "l1_misses", "l2_misses", "reconfigs", "promotions", "overhead_instr"} {
			if _, ok := run[key]; !ok {
				t.Errorf("%s: missing key %q", section, key)
			}
		}
		if run["instr"].(float64) == 0 {
			t.Errorf("%s: zero instructions", section)
		}
	}
	derived, ok := b["derived"].(map[string]any)
	if !ok {
		t.Fatal("missing derived section")
	}
	for _, key := range []string{"l1d_saving_bbv", "l1d_saving_hot", "l2_saving_bbv", "l2_saving_hot", "slowdown_bbv", "slowdown_hot"} {
		if _, ok := derived[key]; !ok {
			t.Errorf("derived: missing key %q", key)
		}
	}
}

// TestRunSuiteLogsProgress checks the per-benchmark progress lines.
func TestRunSuiteLogsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	opt := DefaultOptions()
	var log bytes.Buffer
	opt.Log = &log
	cs, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(workload.Suite()) {
		t.Fatalf("comparisons = %d", len(cs))
	}
	lines := bytes.Count(log.Bytes(), []byte("\n"))
	if lines != len(cs) {
		t.Errorf("progress lines = %d, want %d:\n%s", lines, len(cs), log.String())
	}
}

// TestSinkDoesNotChangeResults: telemetry observes a run and must not
// steer it. The interval sampler reads the energy meters at every
// interval; a read that closed a leakage epoch would split the epoch's
// leakage into two rounded adds and move the run's energies in their
// last digit. So a run with a Buffer sink must give the result of the
// same run without one, for every scheme.
func TestSinkDoesNotChangeResults(t *testing.T) {
	spec, ok := workload.ByName("jess")
	if !ok {
		t.Fatal("no jess benchmark")
	}
	for _, scheme := range []Scheme{SchemeBaseline, SchemeHotspot, SchemeBBV} {
		plain, err := Run(spec, scheme, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		var buf telemetry.Buffer
		opt.Sink = &buf
		observed, err := Run(spec, scheme, opt)
		if err != nil {
			t.Fatal(err)
		}
		if buf.Count(telemetry.TypeInterval) == 0 {
			t.Fatalf("%s: the sink saw no interval samples", scheme)
		}
		if !sameSim(plain, observed) {
			t.Errorf("%s: results differ with a sink: L1D %v nJ vs %v without, L2 %v vs %v",
				scheme, observed.L1DEnergyNJ, plain.L1DEnergyNJ, observed.L2EnergyNJ, plain.L2EnergyNJ)
		}
	}
}
