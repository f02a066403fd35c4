package vm

import (
	"errors"
	"strings"
	"testing"

	"acedo/internal/isa"
	"acedo/internal/machine"
	"acedo/internal/program"
)

func divInstr(a, x, y uint8) isa.Instr { return isa.Instr{Op: isa.OpDiv, A: a, B: x, C: y} }
func remInstr(a, x, y uint8) isa.Instr { return isa.Instr{Op: isa.OpRem, A: a, B: x, C: y} }

func testParams() Params {
	p := DefaultParams()
	p.SampleInterval = 1000
	p.HotThreshold = 3
	p.MinSamples = 1
	return p
}

func newEnv(t *testing.T, prog *program.Program, params Params) (*Engine, *AOS, *machine.Machine) {
	t.Helper()
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	aos := NewAOS(params, mach, prog)
	eng, err := NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	return eng, aos, mach
}

func TestNewEngineRejectsInvalidParams(t *testing.T) {
	prog := sumProgram(4)
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}

	// A zero-value Params used to panic with index-out-of-range on
	// the initial frame push; it must be a descriptive error.
	aos := NewAOS(Params{}, mach, prog)
	if _, err := NewEngine(prog, mach, aos); err == nil ||
		!strings.Contains(err.Error(), "MaxCallDepth") {
		t.Errorf("zero-value Params: err = %v, want MaxCallDepth error", err)
	}

	// SampleInterval 0 disables the profiler: the engine must build
	// and run without ever delivering a sample.
	p := testParams()
	p.SampleInterval = 0
	aos = NewAOS(p, mach, prog)
	eng, err := NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatalf("zero SampleInterval (profiler disabled): %v", err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range aos.Profiles() {
		if s := aos.Profiles()[i].Samples; s != 0 {
			t.Errorf("profiler disabled but method %d has %d samples", i, s)
		}
	}

	aos = NewAOS(testParams(), mach, prog)
	if _, err := NewEngine(prog, mach, aos); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// sumProgram computes sum(1..n) in a loop and stores it to mem[0].
func sumProgram(n int64) *program.Program {
	b := program.NewBuilder("sum")
	b.SetMemWords(8)
	m := b.NewMethod("main")
	entry := m.NewBlock()
	entry.Const(1, 0) // i
	entry.Const(2, 0) // acc
	entry.Const(3, n) // limit
	loop := m.NewBlock()
	loop.AddI(1, 1, 1)
	loop.Add(2, 2, 1)
	loop.CmpLt(4, 1, 3)
	loop.Br(4, loop.Index())
	exit := m.NewBlock()
	exit.Const(5, 0)
	exit.Store(2, 5, 0)
	exit.Halt()
	b.SetEntry(m.ID())
	return b.MustBuild()
}

func TestEngineComputesSum(t *testing.T) {
	eng, _, _ := newEnv(t, sumProgram(100), testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !eng.Halted() {
		t.Error("engine should halt")
	}
	if got := eng.Mem()[0]; got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestEngineALUSemantics(t *testing.T) {
	b := program.NewBuilder("alu")
	b.SetMemWords(32)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(1, 7).Const(2, 3).Const(31, 0)
	blk.Sub(3, 1, 2)    // 4
	blk.Mul(4, 1, 2)    // 21
	blk.Xor(5, 1, 2)    // 4
	blk.AndI(6, 1, 5)   // 5
	blk.ShlI(7, 1, 2)   // 28
	blk.ShrI(8, 7, 1)   // 14
	blk.CmpLt(9, 2, 1)  // 1
	blk.CmpEq(10, 1, 1) // 1
	for i := uint8(3); i <= 10; i++ {
		blk.Store(i, 31, int64(i))
	}
	blk.Halt()
	b.SetEntry(m.ID())
	prog := b.MustBuild()

	eng, _, _ := newEnv(t, prog, testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{3: 4, 4: 21, 5: 4, 6: 5, 7: 28, 8: 14, 9: 1, 10: 1}
	for addr, val := range want {
		if got := eng.Mem()[addr]; got != val {
			t.Errorf("mem[%d] = %d, want %d", addr, got, val)
		}
	}
}

func TestDivRemByZeroYieldZero(t *testing.T) {
	b := program.NewBuilder("div")
	b.SetMemWords(8)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(1, 42).Const(2, 0).Const(3, 0)
	blk.Emit(divInstr(4, 1, 2))
	blk.Emit(remInstr(5, 1, 2))
	blk.Store(4, 3, 0).Store(5, 3, 1).Halt()
	b.SetEntry(m.ID())
	eng, _, _ := newEnv(t, b.MustBuild(), testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Mem()[0] != 0 || eng.Mem()[1] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", eng.Mem()[0], eng.Mem()[1])
	}
}

func TestCallPassesArgsAndReturns(t *testing.T) {
	b := program.NewBuilder("call")
	b.SetMemWords(8)
	callee := b.NewMethod("add4")
	cb := callee.NewBlock()
	cb.Add(4, 0, 1)
	cb.Add(4, 4, 2)
	cb.Add(4, 4, 3)
	cb.Ret(4)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(0, 1).Const(1, 2).Const(2, 3).Const(3, 4)
	blk.Call(10, callee.ID())
	blk.Const(11, 0)
	blk.Store(10, 11, 0)
	blk.Halt()
	b.SetEntry(m.ID())
	eng, _, _ := newEnv(t, b.MustBuild(), testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Mem()[0] != 10 {
		t.Errorf("call result = %d, want 10", eng.Mem()[0])
	}
}

func TestIndirectCall(t *testing.T) {
	b := program.NewBuilder("callr")
	b.SetMemWords(8)
	f1 := b.NewMethod("one")
	f1.NewBlock().Const(4, 1).Ret(4)
	f2 := b.NewMethod("two")
	f2.NewBlock().Const(4, 2).Ret(4)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(5, int64(f2.ID()))
	blk.CallR(6, 5)
	blk.Const(7, 0)
	blk.Store(6, 7, 0)
	blk.Halt()
	b.SetEntry(m.ID())
	eng, _, _ := newEnv(t, b.MustBuild(), testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Mem()[0] != 2 {
		t.Errorf("indirect call result = %d, want 2", eng.Mem()[0])
	}
}

func TestIndirectCallOutOfRangeFaults(t *testing.T) {
	b := program.NewBuilder("callr")
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(5, 99)
	blk.CallR(6, 5)
	blk.Halt()
	b.SetEntry(m.ID())
	eng, _, _ := newEnv(t, b.MustBuild(), testParams())
	err := eng.Run(0)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want indirect-call fault", err)
	}
}

func TestMemoryFaultHasContext(t *testing.T) {
	b := program.NewBuilder("oob")
	b.SetMemWords(4)
	m := b.NewMethod("main")
	blk := m.NewBlock()
	blk.Const(1, 100)
	blk.Load(2, 1, 0)
	blk.Halt()
	b.SetEntry(m.ID())
	eng, _, _ := newEnv(t, b.MustBuild(), testParams())
	err := eng.Run(0)
	if err == nil {
		t.Fatal("expected fault")
	}
	for _, want := range []string{"main", "load address 100"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fault %q missing %q", err, want)
		}
	}
}

func TestStackOverflowFaults(t *testing.T) {
	b := program.NewBuilder("rec")
	rec := b.NewMethod("rec")
	rec.NewBlock().Call(4, 0).Ret(4) // infinite self-recursion
	m := b.NewMethod("main")
	m.NewBlock().Call(4, rec.ID()).Halt()
	b.SetEntry(m.ID())
	p := testParams()
	p.MaxCallDepth = 64
	eng, _, _ := newEnv(t, b.MustBuild(), p)
	err := eng.Run(0)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v, want stack overflow", err)
	}
}

func TestRunBudget(t *testing.T) {
	eng, _, mach := newEnv(t, sumProgram(1_000_000), testParams())
	err := eng.Run(500)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if mach.Instructions() < 500 || mach.Instructions() > 600 {
		t.Errorf("instructions = %d, want ≈500", mach.Instructions())
	}
	// Resumable: run to completion afterwards.
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !eng.Halted() {
		t.Error("should halt after resume")
	}
}

// hotLoopProgram invokes method "hot" n times from main.
func hotLoopProgram(n int64, bodyIters int64) *program.Program {
	b := program.NewBuilder("hotloop")
	b.SetMemWords(8)
	main := b.NewMethod("main")
	hot := b.NewMethod("hot")
	hb := hot.NewBlock()
	hb.Const(4, 0).Const(5, bodyIters)
	hl := hot.NewBlock()
	hl.AddI(4, 4, 1)
	hl.CmpLt(6, 4, 5)
	hl.Br(6, hl.Index())
	hot.NewBlock().Ret(4)

	entry := main.NewBlock()
	entry.Const(16, 0).Const(17, n)
	loop := main.NewBlock()
	loop.Call(15, hot.ID())
	loop.AddI(16, 16, 1)
	loop.CmpLt(18, 16, 17)
	loop.Br(18, loop.Index())
	main.NewBlock().Halt()
	b.SetEntry(main.ID())
	return b.MustBuild()
}

func TestPromotionRequiresInvocationsAndSamples(t *testing.T) {
	prog := hotLoopProgram(100, 200)
	eng, aos, _ := newEnv(t, prog, testParams())

	var promoted []string
	aos.OnPromote = func(p *MethodProfile) { promoted = append(promoted, p.Name) }
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(promoted) != 1 || promoted[0] != "hot" {
		t.Errorf("promoted = %v, want [hot]", promoted)
	}
	prof := aos.Profile(1)
	if !prof.Promoted {
		t.Error("hot method profile should be promoted")
	}
	if prof.Invocations != 100 {
		t.Errorf("invocations = %d, want 100", prof.Invocations)
	}
	if prof.Samples == 0 {
		t.Error("hot method should accumulate samples")
	}
	if aos.Promotions() != 1 {
		t.Errorf("Promotions = %d", aos.Promotions())
	}
	// Identification latency: the method ran before promotion.
	if prof.PromotedAt == 0 || prof.InstrBeforePromotion == 0 {
		t.Error("promotion bookkeeping missing")
	}
}

func TestMeanSizeTracksInclusiveInstructions(t *testing.T) {
	prog := hotLoopProgram(50, 100)
	eng, aos, _ := newEnv(t, prog, testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	prof := aos.Profile(1)
	// Body executes ~3 instructions per iteration plus prologue.
	size := prof.MeanSize()
	if size < 250 || size > 400 {
		t.Errorf("MeanSize = %v, want ≈300", size)
	}
}

func TestCallerSamplingCreditsEnclosingMethods(t *testing.T) {
	prog := hotLoopProgram(100, 500)
	eng, aos, _ := newEnv(t, prog, testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if aos.Profile(0).Samples == 0 {
		t.Error("main should be credited by caller sampling")
	}
}

func TestHooksRunAndChargeOverhead(t *testing.T) {
	prog := hotLoopProgram(60, 100)
	eng, aos, _ := newEnv(t, prog, testParams())
	var entries, exits int
	var inclusiveSeen uint64
	aos.OnPromote = func(p *MethodProfile) {
		aos.SetHooks(p.ID, &Hooks{
			Entry:         func(*MethodProfile) { entries++ },
			Exit:          func(_ *MethodProfile, inc uint64) { exits++; inclusiveSeen = inc },
			EntryOverhead: 10,
			ExitOverhead:  5,
		})
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if entries == 0 || entries != exits {
		t.Errorf("entries/exits = %d/%d", entries, exits)
	}
	if inclusiveSeen == 0 {
		t.Error("exit hook should receive the inclusive size")
	}
	if got := aos.OverheadInstr(); got != uint64(entries*10+exits*5) {
		t.Errorf("overhead = %d, want %d", got, entries*10+exits*5)
	}
}

func TestChargeOverhead(t *testing.T) {
	prog := sumProgram(10)
	_, aos, mach := newEnv(t, prog, testParams())
	before := mach.Instructions()
	aos.ChargeOverhead(7)
	if mach.Instructions() != before+7 || aos.OverheadInstr() != 7 {
		t.Error("ChargeOverhead should charge the machine and the counter")
	}
}

func TestHotspotInstrSpans(t *testing.T) {
	prog := hotLoopProgram(200, 300)
	eng, aos, mach := newEnv(t, prog, testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	frac := float64(aos.HotspotInstr()) / float64(mach.Instructions())
	// Most of the execution is inside the hot method once promoted.
	if frac < 0.5 || frac > 1.0 {
		t.Errorf("hotspot instruction fraction = %.2f, want (0.5,1]", frac)
	}
}

func TestBlockListener(t *testing.T) {
	prog := sumProgram(10)
	eng, _, _ := newEnv(t, prog, testParams())
	var l countListener
	eng.SetBlockListener(&l)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Loop block 10 times (fallthrough + 9 taken branches) plus the
	// exit block. The entry block is fetched during NewEngine,
	// before the listener attaches, so it is not observed.
	if l.blocks != 11 {
		t.Errorf("block entries = %d, want 11", l.blocks)
	}
	if l.instrs == 0 {
		t.Error("listener should see instruction counts")
	}
}

// countListener counts block entries and their instructions.
type countListener struct{ blocks, instrs int }

func (l *countListener) OnBlock(pc uint64, n int) { l.blocks++; l.instrs += n }

func (l *countListener) Accumulate(pc uint64, n int, k uint64) {
	l.blocks += int(k)
	l.instrs += n * int(k)
}

func (l *countListener) Due() uint64 { return 0 }

func TestHaltUnwindingBalancesProfiles(t *testing.T) {
	// Halt inside main while a callee chain completed before:
	// profiles must have CompletedInvocations == Invocations for
	// all methods after halt unwinding.
	prog := hotLoopProgram(10, 10)
	eng, aos, _ := newEnv(t, prog, testParams())
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range aos.Profiles() {
		p := &aos.Profiles()[i]
		if p.Invocations != p.CompletedInvocations {
			t.Errorf("method %s: %d invocations, %d completed",
				p.Name, p.Invocations, p.CompletedInvocations)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, _, mach := newEnv(t, hotLoopProgram(50, 50), testParams())
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return mach.Instructions(), mach.Cycles()
	}
	i1, c1 := run()
	i2, c2 := run()
	if i1 != i2 || c1 != c2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", i1, c1, i2, c2)
	}
}

func TestNewEngineRejectsUnsealedAndNilAOS(t *testing.T) {
	mach, _ := machine.New(machine.PaperConfig(10))
	if _, err := NewEngine(&program.Program{Name: "x"}, mach, NewAOS(testParams(), mach, sumProgram(1))); err == nil {
		t.Error("unsealed program should be rejected")
	}
	if _, err := NewEngine(sumProgram(1), mach, nil); err == nil {
		t.Error("nil AOS should be rejected")
	}
}

func TestAOSAccessors(t *testing.T) {
	prog := sumProgram(10)
	eng, aos, _ := newEnv(t, prog, testParams())
	if aos.Params().HotThreshold != 3 {
		t.Error("Params accessor wrong")
	}
	if aos.HooksFor(0) != nil {
		t.Error("no hooks installed yet")
	}
	h := &Hooks{}
	aos.SetHooks(0, h)
	if aos.HooksFor(0) != h {
		t.Error("HooksFor should return the installed hooks")
	}
	aos.SetHooks(0, nil)
	if eng.Depth() != 1 {
		t.Errorf("Depth = %d before running", eng.Depth())
	}
	if PaperParams().SampleInterval != 100_000 {
		t.Error("PaperParams wrong")
	}
}

func TestMeanSizeEmpty(t *testing.T) {
	var p MethodProfile
	if p.MeanSize() != 0 {
		t.Error("MeanSize with no invocations should be 0")
	}
}
