package experiment

import (
	"strings"
	"testing"

	"acedo/internal/workload"
)

func miniSpec(t *testing.T) workload.Spec {
	t.Helper()
	s, ok := workload.ByName("jess")
	if !ok {
		t.Fatal("jess missing")
	}
	return s.WithMainLoops(2)
}

func TestSchemeString(t *testing.T) {
	if SchemeBaseline.String() != "baseline" || SchemeBBV.String() != "bbv" ||
		SchemeHotspot.String() != "hotspot" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() != "scheme(9)" {
		t.Error("unknown scheme string wrong")
	}
}

func TestOptionsAtScale(t *testing.T) {
	o := OptionsAtScale(10)
	if o.ScaleDiv != 10 || o.VM.SampleInterval != 10_000 {
		t.Errorf("scaled options wrong: %+v", o.VM)
	}
	o1 := OptionsAtScale(1)
	if o1.BBV.IntervalInstr != 1_000_000 {
		t.Error("paper-scale BBV interval wrong")
	}
	if OptionsAtScale(0).ScaleDiv != 1 {
		t.Error("scale 0 should clamp to 1")
	}
}

func TestRunAllSchemes(t *testing.T) {
	spec := miniSpec(t)
	opt := DefaultOptions()
	for _, sch := range []Scheme{SchemeBaseline, SchemeBBV, SchemeHotspot} {
		res, err := Run(spec, sch, opt)
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if res.Instr == 0 || res.Cycles == 0 || res.IPC <= 0 {
			t.Errorf("%s: empty result %+v", sch, res)
		}
		if res.L1DEnergyNJ <= 0 || res.L2EnergyNJ <= 0 {
			t.Errorf("%s: non-positive energy", sch)
		}
		switch sch {
		case SchemeBaseline:
			if res.Hotspot != nil || res.BBV != nil {
				t.Error("baseline must not carry scheme reports")
			}
			if res.Breakdown.Reconfigs != 0 {
				t.Error("baseline must never reconfigure")
			}
		case SchemeBBV:
			if res.BBV == nil || res.Hotspot != nil {
				t.Error("BBV run must carry exactly the BBV report")
			}
		case SchemeHotspot:
			if res.Hotspot == nil || res.BBV != nil {
				t.Error("hotspot run must carry exactly the hotspot report")
			}
			if res.AOS.Promotions == 0 {
				t.Error("hotspot run found no hotspots")
			}
		}
	}
}

func TestCompareDerivedMetrics(t *testing.T) {
	c, err := Compare(miniSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The schemes execute extra instrumentation but the same work:
	// baseline instructions are a lower bound.
	if c.HotRun.Instr < c.Base.Instr {
		t.Error("hotspot run executed fewer instructions than baseline")
	}
	// Savings are fractions < 1; slowdowns are ≥ 0 in practice but
	// must at least be sane.
	for _, v := range []float64{c.L1DSavingBBV, c.L1DSavingHot, c.L2SavingBBV, c.L2SavingHot} {
		if v >= 1 || v < -1 {
			t.Errorf("saving out of range: %v", v)
		}
	}
	if c.SlowdownHot < -0.05 || c.SlowdownHot > 1 {
		t.Errorf("hotspot slowdown out of range: %v", c.SlowdownHot)
	}
	// The adaptive run must actually save L1D energy on this
	// cache-friendly workload.
	if c.L1DSavingHot <= 0 {
		t.Errorf("hotspot L1D saving = %v, want > 0", c.L1DSavingHot)
	}
}

func TestBaselineDeterministicAcrossSchemes(t *testing.T) {
	// The baseline's own run must be identical no matter when it
	// executes: Run must not leak state between calls.
	opt := DefaultOptions()
	spec := miniSpec(t)
	r1, err := Run(spec, SchemeBaseline, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec, SchemeBaseline, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Instr != r2.Instr || r1.Cycles != r2.Cycles || r1.L1DEnergyNJ != r2.L1DEnergyNJ {
		t.Error("baseline runs differ")
	}
}

func TestMaxInstrBudget(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxInstr = 1_000_000
	res, err := Run(miniSpec(t), SchemeHotspot, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instr < 1_000_000 || res.Instr > 1_100_000 {
		t.Errorf("budgeted run executed %d instructions", res.Instr)
	}
}

func TestTableRenderers(t *testing.T) {
	// Render every artifact from a tiny suite result (one
	// comparison reused) and check the headers survive.
	c, err := Compare(miniSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := &SuiteResults{Options: DefaultOptions(), Comparisons: []*Comparison{c}}
	var sb strings.Builder
	r.WriteAll(&sb)
	out := sb.String()
	for _, want := range []string{
		"Table 1.", "Table 2.", "Table 3.", "Figure 1.",
		"Table 4.", "Table 5.", "Table 6.", "Figure 3.", "Figure 4.",
		"jess", "avg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSavingAndSlowdownHelpers(t *testing.T) {
	if saving(0, 5) != 0 {
		t.Error("saving with zero baseline should be 0")
	}
	if got := saving(10, 4); got != 0.6 {
		t.Errorf("saving = %v", got)
	}
	base := &Result{Instr: 100, Cycles: 100}
	slow := &Result{Instr: 110, Cycles: 120}
	if got := slowdown(base, slow); got < 0.19 || got > 0.21 {
		t.Errorf("slowdown = %v, want 0.2", got)
	}
	if slowdown(&Result{}, slow) != 0 {
		t.Error("empty baseline should yield 0")
	}
}

func TestSchemeWSS(t *testing.T) {
	res, err := Run(miniSpec(t), SchemeWSS, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.BBV == nil {
		t.Fatal("WSS run must carry the temporal-scheme report")
	}
	if res.BBV.Intervals == 0 || res.BBV.Phases == 0 {
		t.Errorf("WSS detected nothing: %+v", res.BBV)
	}
}

func TestCompareDetectors(t *testing.T) {
	c, err := CompareDetectors(miniSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.WSSRun == nil || c.BBVRun == nil || c.HotRun == nil {
		t.Fatal("missing runs")
	}
	for _, v := range []float64{c.CacheSavingBBV, c.CacheSavingWSS, c.CacheSavingHot} {
		if v >= 1 || v < -1 {
			t.Errorf("saving out of range: %v", v)
		}
	}
	var sb strings.Builder
	DetectorTable(&sb, []*DetectorComparison{c})
	for _, want := range []string{"WSS", "hotspot", "jess", "avg"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("detector table missing %q", want)
		}
	}
}

// TestRunDetectorSuiteAdjustsWorkload: the detector suite runs the
// same scale-adjusted programs as RunSuite, so off the default scale
// every detector row's baseline retires exactly RunSuite's
// instruction count for its benchmark.
func TestRunDetectorSuiteAdjustsWorkload(t *testing.T) {
	opt := OptionsAtScale(20)
	cs, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := RunDetectorSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(cs) {
		t.Fatalf("%d detector rows, %d suite rows", len(ds), len(cs))
	}
	for i, d := range ds {
		if d.Name != cs[i].Name || d.Base.Instr != cs[i].Base.Instr {
			t.Errorf("row %d: detectors %s baseline %d instr, suite %s %d",
				i, d.Name, d.Base.Instr, cs[i].Name, cs[i].Base.Instr)
		}
	}
}

func TestAdjustWorkload(t *testing.T) {
	spec := miniSpec(t) // 2 loops
	if got := DefaultOptions().AdjustWorkload(spec).MainLoops; got != 2 {
		t.Errorf("scale 10 must not adjust: %d", got)
	}
	if got := OptionsAtScale(1).AdjustWorkload(spec).MainLoops; got != 20 {
		t.Errorf("paper scale should run 10x loops: %d", got)
	}
	if got := OptionsAtScale(20).AdjustWorkload(spec).MainLoops; got != 1 {
		t.Errorf("scale 20 should halve (clamped at 1): %d", got)
	}
}
