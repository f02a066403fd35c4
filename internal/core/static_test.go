package core

import (
	"testing"

	"acedo/internal/hotspot"
	"acedo/internal/isa"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

func TestAnalyzerSeqWalkFootprint(t *testing.T) {
	// leafProgram walks [0, 512) words: 4 KB.
	prog := leafProgram(512, 2, 10)
	a := NewAnalyzer(prog)
	foot := a.Footprint(1) // leaf
	if foot != 512*isa.WordBytes {
		t.Errorf("leaf footprint = %d, want %d", foot, 512*isa.WordBytes)
	}
}

func TestAnalyzerInclusiveOverCalls(t *testing.T) {
	prog := phaseProgram(10)
	a := NewAnalyzer(prog)
	leafFoot := a.Footprint(2)
	phaseFoot := a.Footprint(1)
	if leafFoot == 0 {
		t.Fatal("leaf footprint missing")
	}
	if phaseFoot < leafFoot {
		t.Errorf("phase inclusive footprint %d < leaf %d", phaseFoot, leafFoot)
	}
	mainFoot := a.Footprint(0)
	if mainFoot < phaseFoot {
		t.Errorf("main inclusive footprint %d < phase %d", mainFoot, phaseFoot)
	}
}

func TestAnalyzerProbeMask(t *testing.T) {
	// A probe loop: idx = state & 1023; load [base+idx]. The AndI
	// mask must bound the interval to 1024 words.
	b := program.NewBuilder("probe")
	b.SetMemWords(2048)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(4, 64) // base
	blk.Const(5, 12345)
	blk.MulI(5, 5, 1103515245)
	blk.AndI(6, 5, 1023)
	blk.Add(7, 4, 6)
	blk.Load(8, 7, 0)
	blk.Halt()
	b.SetEntry(m.ID())
	prog := b.MustBuild()
	a := NewAnalyzer(prog)
	if got := a.Footprint(0); got != 1024*isa.WordBytes {
		t.Errorf("probe footprint = %d, want %d", got, 1024*isa.WordBytes)
	}
}

func TestAnalyzerUnknownAddressDeclines(t *testing.T) {
	// Address comes from loaded data: no static estimate.
	b := program.NewBuilder("dyn")
	b.SetMemWords(64)
	m := b.NewMethod("main")
	other := b.NewMethod("other")
	ob := other.NewBlock()
	ob.Load(5, 0, 0) // r5 = mem[r0] (r0 unknown at analysis time)
	ob.Load(6, 5, 0) // data-dependent address
	ob.Ret(6)
	mb := m.NewBlock()
	mb.Const(0, 0)
	mb.Call(4, other.ID())
	mb.Halt()
	b.SetEntry(m.ID())
	prog := b.MustBuild()
	a := NewAnalyzer(prog)
	// The first load has r0 unknown in "other" (arg), so nothing
	// statically resolvable inside other beyond possibly nothing.
	hint := a.HintFor(machine.PaperConfig(10))
	if _, ok := hint(1, hotspot.ClassL1D, 0); ok {
		if a.Footprint(1) == 0 {
			t.Error("hint must decline when the footprint is 0")
		}
	}
}

func TestAnalyzerCyclesTerminate(t *testing.T) {
	b := program.NewBuilder("cycle")
	b.SetMemWords(64)
	f := b.NewMethod("main")
	g := b.NewMethod("g")
	g.NewBlock().Call(4, 0).Ret(4) // g -> main (cycle)
	fb := f.NewBlock()
	fb.Const(4, 0)
	fb.Load(5, 4, 0)
	fb.Call(6, g.ID())
	fb.Halt()
	b.SetEntry(f.ID())
	prog := b.MustBuild()
	a := NewAnalyzer(prog) // must not hang or overflow
	if a.Footprint(0) == 0 {
		t.Error("main accesses mem[0]: footprint should be positive")
	}
}

func TestHintPicksDoubleFootprint(t *testing.T) {
	prog := leafProgram(512, 2, 10) // 4 KB footprint
	a := NewAnalyzer(prog)
	mc := machine.PaperConfig(10)
	hint := a.HintFor(mc)
	cfg, ok := hint(1, hotspot.ClassL1D, 6500)
	if !ok {
		t.Fatal("hint declined")
	}
	// 2×4 KB = 8 KB: the smallest setting suffices.
	if got := mc.L1DSizes[cfg[0]]; got != 8*1024 {
		t.Errorf("hinted L1D = %d, want 8K", got)
	}
	// An L2 hotspot with the same footprint reads the L2 ladder.
	if cfg, ok := hint(1, hotspot.ClassL2, 6500); !ok || cfg[0] != 0 {
		t.Errorf("L2 hint = %v, %v; want the smallest L2 setting", cfg, ok)
	}
}

func TestHintDeclinesMicroClass(t *testing.T) {
	// A data footprint says nothing about the issue queue a micro
	// hotspot manages: the hint must decline so the hotspot takes the
	// descent, even with the IQ unit enabled and a footprint known.
	prog := leafProgram(512, 2, 10)
	a := NewAnalyzer(prog)
	if a.Footprint(1) == 0 {
		t.Fatal("leaf footprint missing")
	}
	hint := a.HintFor(machine.PaperConfig(10).WithIQ())
	if cfg, ok := hint(1, hotspot.ClassMicro, 500); ok {
		t.Errorf("micro hint = %v, want declined", cfg)
	}
}

func TestHintCapsAtLargest(t *testing.T) {
	prog := leafProgram(8192, 1, 10) // 64 KB footprint: 2× exceeds max
	a := NewAnalyzer(prog)
	mc := machine.PaperConfig(10)
	hint := a.HintFor(mc)
	cfg, ok := hint(1, hotspot.ClassL1D, 50000)
	if !ok {
		t.Fatal("hint declined")
	}
	if cfg[0] != len(mc.L1DSizes)-1 {
		t.Errorf("hinted index = %d, want max", cfg[0])
	}
}

func TestAnalyzerOnSuitePrograms(t *testing.T) {
	// The analyzer must terminate on every suite program and find
	// nonzero footprints for most methods.
	for _, s := range workload.Suite() {
		prog := s.MustBuild()
		a := NewAnalyzer(prog)
		nonzero := 0
		for id := 0; id < prog.NumMethods(); id++ {
			if a.Footprint(program.MethodID(id)) > 0 {
				nonzero++
			}
		}
		if nonzero < prog.NumMethods()/2 {
			t.Errorf("%s: only %d/%d methods have estimated footprints",
				s.Name, nonzero, prog.NumMethods())
		}
	}
}

func TestStaticHintEndToEnd(t *testing.T) {
	// Full pipeline: analyzer-driven hints, no descent, and a
	// sensible configuration for a 4 KB leaf.
	prog := leafProgram(512, 2, 300)
	a := NewAnalyzer(prog)
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(10)
	p.StaticHint = a.HintFor(machine.PaperConfig(10))
	aos := vm.NewAOS(testVMParams(), mach, prog)
	mgr, err := NewManager(p, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := vm.NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	h := mgr.Hotspots()[0]
	if !h.TunedOK || mgr.Report().L1D.Tunings != 0 {
		t.Error("hinted run should skip the descent")
	}
	if got := mach.L1DUnit.Setting(h.BestConfig()[0]); got != 8*1024 {
		t.Errorf("hinted best = %d, want 8K", got)
	}
}
