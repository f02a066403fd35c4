package bbv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
)

func TestDefaultParamsScaling(t *testing.T) {
	p1 := DefaultParams(1)
	if p1.IntervalInstr != 1_000_000 {
		t.Errorf("paper interval = %d", p1.IntervalInstr)
	}
	p10 := DefaultParams(10)
	if p10.IntervalInstr != 100_000 {
		t.Errorf("scaled interval = %d", p10.IntervalInstr)
	}
	if DefaultParams(0).IntervalInstr != 1_000_000 {
		t.Error("scale 0 means scale 1")
	}
	if err := p10.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	for _, mutate := range []func(*Params){
		func(p *Params) { p.IntervalInstr = 0 },
		func(p *Params) { p.Buckets = 0 },
		func(p *Params) { p.Buckets = 3 },
		func(p *Params) { p.BucketBits = 0 },
		func(p *Params) { p.BucketBits = 33 },
		func(p *Params) { p.MatchThreshold = 0 },
		func(p *Params) { p.MatchThreshold = 3 },
		func(p *Params) { p.StableRun = 1 },
	} {
		p := DefaultParams(10)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutated params %+v should be invalid", p)
		}
	}
}

func TestManhattan(t *testing.T) {
	a := []float64{0.5, 0.5, 0}
	b := []float64{0, 0.5, 0.5}
	if d := Manhattan(a, a); d != 0 {
		t.Errorf("d(a,a) = %v", d)
	}
	if d := Manhattan(a, b); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("d(a,b) = %v, want 1", d)
	}
}

func TestManhattanProperties(t *testing.T) {
	gen := func(rng *rand.Rand) []float64 {
		v := make([]float64, 8)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		dab, dba := Manhattan(a, b), Manhattan(b, a)
		// Symmetry, non-negativity, triangle inequality.
		return dab == dba && dab >= 0 &&
			Manhattan(a, c) <= dab+Manhattan(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnitsOrderedByIntervalDescending(t *testing.T) {
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(DefaultParams(10), mach)
	if err != nil {
		t.Fatal(err)
	}
	if m.units[0].Name() != "L2" || m.units[1].Name() != "L1D" {
		t.Errorf("unit order = [%s %s], want [L2 L1D]", m.units[0].Name(), m.units[1].Name())
	}
	if m.groupSize != 4 {
		t.Errorf("groupSize = %d, want 4", m.groupSize)
	}
	if len(m.combos) != 16 {
		t.Errorf("combos = %d, want 16", len(m.combos))
	}
}

// twoPhaseProgram alternates two long-running methods with distinct
// block PCs and working sets, each lasting several sampling intervals.
func twoPhaseProgram(outer int64) *program.Program {
	b := program.NewBuilder("twophase")
	b.SetMemWords(8192)
	main := b.NewMethod("main")

	emitWalk := func(m *program.MethodBuilder, base, words, reps int64) {
		entry := m.NewBlock()
		entry.Const(4, base)
		entry.Const(11, 0)
		entry.Const(12, reps)
		rep := m.NewBlock()
		rep.Const(5, 0)
		rep.Const(6, words)
		loop := m.NewBlock()
		loop.Add(7, 4, 5)
		loop.Load(8, 7, 0)
		loop.Add(9, 9, 8)
		loop.AddI(5, 5, 1)
		loop.CmpLt(10, 5, 6)
		loop.Br(10, loop.Index())
		tail := m.NewBlock()
		tail.AddI(11, 11, 1)
		tail.CmpLt(10, 11, 12)
		tail.Br(10, rep.Index())
		m.NewBlock().Ret(9)
	}

	pa := b.NewMethod("phaseA")
	emitWalk(pa, 0, 512, 80) // ≈250K instructions per invocation
	pb := b.NewMethod("phaseB")
	emitWalk(pb, 4096, 2048, 20) // ≈250K instructions, different PCs/footprint

	me := main.NewBlock()
	me.Const(16, 0)
	me.Const(17, outer)
	loop := main.NewBlock()
	loop.Call(15, pa.ID())
	loop.Call(15, pa.ID())
	loop.Call(15, pa.ID())
	loop.Call(15, pb.ID())
	loop.Call(15, pb.ID())
	loop.Call(15, pb.ID())
	loop.AddI(16, 16, 1)
	loop.CmpLt(18, 16, 17)
	loop.Br(18, loop.Index())
	main.NewBlock().Halt()
	b.SetEntry(main.ID())
	return b.MustBuild()
}

func runBBV(t *testing.T, prog *program.Program, params Params) (*Manager, *machine.Machine) {
	t.Helper()
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	vp := vm.DefaultParams()
	aos := vm.NewAOS(vp, mach, prog)
	mgr, err := NewManager(params, mach)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := vm.NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetBlockListener(mgr.OnBlock)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	return mgr, mach
}

func TestDetectsAlternatingPhases(t *testing.T) {
	mgr, _ := runBBV(t, twoPhaseProgram(40), DefaultParams(10))
	rep := mgr.Report()
	if rep.Intervals < 100 {
		t.Fatalf("intervals = %d, want ≥100", rep.Intervals)
	}
	// Two dominant signatures plus straddles: a handful of phases,
	// not one per interval.
	if rep.Phases < 2 || rep.Phases > 12 {
		t.Errorf("phases = %d, want a few", rep.Phases)
	}
	// Each phase run spans ≈2.5 intervals: a majority is stable.
	if rep.StablePct < 0.4 {
		t.Errorf("stable = %.2f, want ≥0.4", rep.StablePct)
	}
}

func TestTuningCompletesAndCovers(t *testing.T) {
	mgr, _ := runBBV(t, twoPhaseProgram(50), DefaultParams(10))
	rep := mgr.Report()
	if rep.TunedPhases == 0 {
		t.Fatalf("no phase finished tuning: %+v", rep)
	}
	if rep.Tunings == 0 || rep.Coverage <= 0 {
		t.Errorf("tunings=%d coverage=%v", rep.Tunings, rep.Coverage)
	}
	if rep.Coverage > 1 || rep.PctIntervalsInTuned > 1 {
		t.Error("fractions out of range")
	}
	for _, ph := range mgr.Phases() {
		if ph.Done {
			if cfg := mgr.BestConfigOf(ph); len(cfg) != 2 {
				t.Errorf("best config = %v", cfg)
			}
		} else if mgr.BestConfigOf(ph) != nil {
			t.Error("unfinished phase must have nil best config")
		}
	}
}

func TestTunedPhaseShrinksCaches(t *testing.T) {
	// Working sets are ≤16 KB, so finished phases must not keep
	// everything at the maximum sizes.
	mgr, mach := runBBV(t, twoPhaseProgram(50), DefaultParams(10))
	shrunk := false
	for _, ph := range mgr.Phases() {
		if cfg := mgr.BestConfigOf(ph); cfg != nil {
			for i, u := range mgr.units {
				if u.Setting(cfg[i]) < u.Setting(u.MaxIndex()) {
					shrunk = true
				}
			}
		}
	}
	if !shrunk {
		t.Error("no tuned phase chose a smaller configuration")
	}
	_ = mach
}

func TestBBVEnergyBelowStatic(t *testing.T) {
	// Compared against a baseline run of the same program at the
	// full sizes, the BBV-managed run must save cache energy.
	prog := twoPhaseProgram(40)
	base, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	aosB := vm.NewAOS(vm.DefaultParams(), base, prog)
	engB, _ := vm.NewEngine(prog, base, aosB)
	if err := engB.Run(0); err != nil {
		t.Fatal(err)
	}
	baseSnap := base.Snapshot()

	_, mach := runBBV(t, twoPhaseProgram(40), DefaultParams(10))
	snap := mach.Snapshot()
	if snap.L2nJ >= baseSnap.L2nJ {
		t.Errorf("BBV L2 energy %.3g ≥ baseline %.3g", snap.L2nJ, baseSnap.L2nJ)
	}
}

func TestAccumulatorSaturates(t *testing.T) {
	p := DefaultParams(10)
	p.BucketBits = 4 // max 15
	d := NewBBVDetector(p)
	for i := 0; i < 10; i++ {
		d.Accumulate(0, 10)
	}
	if d.acc[0] != 15 {
		t.Errorf("bucket = %d, want saturation at 15", d.acc[0])
	}
}

func TestBBVDetectorClassifies(t *testing.T) {
	p := DefaultParams(10)
	d := NewBBVDetector(p)
	// Interval A: all weight in bucket 0.
	d.Accumulate(0, 100)
	if got := d.Boundary(); got != 0 {
		t.Fatalf("first interval phase = %d, want 0", got)
	}
	// Interval B: all weight in a different bucket: new phase.
	d.Accumulate(16<<2, 100)
	if got := d.Boundary(); got != 1 {
		t.Fatalf("distinct interval phase = %d, want 1", got)
	}
	// Interval A again: recurring phase 0.
	d.Accumulate(0, 100)
	if got := d.Boundary(); got != 0 {
		t.Fatalf("recurring interval phase = %d, want 0", got)
	}
	if d.Signature(0) == nil || d.Signature(5) != nil {
		t.Error("signature accessor wrong")
	}
	if d.Name() != "bbv" {
		t.Error("detector name wrong")
	}
}

// TestBoundaryMatchAllocatesNothing: a boundary that matches a stored
// phase normalizes into the detector's scratch vector, so only a new
// phase (which keeps its signature) allocates.
func TestBoundaryMatchAllocatesNothing(t *testing.T) {
	d := NewBBVDetector(DefaultParams(10))
	d.Accumulate(0, 100)
	d.Boundary()
	d.Accumulate(16<<2, 100)
	d.Boundary()
	allocs := testing.AllocsPerRun(100, func() {
		d.Accumulate(0, 60)
		d.Accumulate(32<<2, 40) // bucket 0 again: the PC bits wrap
		if got := d.Boundary(); got != 0 {
			t.Fatalf("phase %d, want 0", got)
		}
	})
	if allocs != 0 {
		t.Errorf("matching boundary allocated %.0f times, want 0", allocs)
	}
}
