package machine

import (
	"testing"

	"acedo/internal/program"
)

func newMach(t *testing.T) *Machine {
	t.Helper()
	m, err := New(PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPaperConfigScaling(t *testing.T) {
	c1 := PaperConfig(1)
	if c1.L1DReconfigInterval != 100_000 || c1.L2ReconfigInterval != 1_000_000 {
		t.Errorf("paper-scale intervals wrong: %+v", c1)
	}
	c10 := PaperConfig(10)
	if c10.L1DReconfigInterval != 10_000 || c10.L2ReconfigInterval != 100_000 {
		t.Errorf("scaled intervals wrong: %+v", c10)
	}
	c0 := PaperConfig(0)
	if c0.L1DReconfigInterval != 100_000 {
		t.Error("scale 0 should mean scale 1")
	}
}

func TestMachineStartsAtLargestConfig(t *testing.T) {
	m := newMach(t)
	if m.L1D.SizeBytes() != 64*1024 {
		t.Errorf("L1D size = %d", m.L1D.SizeBytes())
	}
	if m.L2.SizeBytes() != 1024*1024 {
		t.Errorf("L2 size = %d", m.L2.SizeBytes())
	}
	if m.L1DUnit.Current() != 64*1024 || m.L2Unit.Current() != 1024*1024 {
		t.Error("units not at largest settings")
	}
}

func TestIssueCountsInstructions(t *testing.T) {
	m := newMach(t)
	m.Issue(10)
	if m.Instructions() != 10 {
		t.Errorf("Instructions = %d", m.Instructions())
	}
	if m.Cycles() == 0 {
		t.Error("cycles should advance with issue")
	}
}

func TestDataMissGoesToL2(t *testing.T) {
	m := newMach(t)
	m.Data(100, false)
	if m.L1D.Stats().Misses != 1 {
		t.Error("first access should miss L1D")
	}
	if m.L2.Stats().Accesses != 1 {
		t.Error("L1D miss should access L2")
	}
	m.Data(100, false)
	if m.L1D.Stats().Hits != 1 {
		t.Error("repeat should hit L1D")
	}
	if m.L2.Stats().Accesses != 1 {
		t.Error("L1D hit should not touch L2")
	}
}

// blockLines returns the sealed L1I line range of a block of instrs
// instructions at global pc: the sealer computes it, padding the
// method with a leading block of pc nops.
func blockLines(t *testing.T, pc, instrs int) (first, last uint64) {
	t.Helper()
	b := program.NewBuilder("lines")
	m := b.NewMethod("main")
	if pc > 0 {
		pad := m.NewBlock()
		for i := 0; i < pc; i++ {
			pad.Nop()
		}
	}
	blk := m.NewBlock()
	for i := 1; i < instrs; i++ {
		blk.Nop()
	}
	blk.Halt()
	b.SetEntry(m.ID())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blocks := p.Methods[0].Blocks
	if got := blocks[len(blocks)-1].PC; got != uint64(pc) {
		t.Fatalf("block sealed at pc %d, want %d", got, pc)
	}
	return blocks[len(blocks)-1].FirstLine, blocks[len(blocks)-1].LastLine
}

func TestFetchUsesSeparateAddressSpace(t *testing.T) {
	m := newMach(t)
	m.FetchLines(blockLines(t, 0, 1))
	m.Data(0, false)
	// Both miss to L2 but must occupy different L2 blocks.
	if m.L2.Stats().Accesses != 2 || m.L2.Stats().Misses != 2 {
		t.Errorf("L2 stats = %+v: I- and D-side must not alias", m.L2.Stats())
	}
}

func TestFetchLongBlockWalksEveryLine(t *testing.T) {
	// A 64 B I-cache line holds 16 4-byte instructions: a 40-
	// instruction block starting at a line boundary spans 3 lines and
	// must pay 3 L1I accesses and (cold) 3 misses — not 1 of each.
	m := newMach(t)
	first, last := blockLines(t, 0, 40)
	m.FetchLines(first, last)
	if got := m.L1I.Stats().Accesses; got != 3 {
		t.Errorf("L1I accesses for 40-instr block = %d, want 3", got)
	}
	if got := m.L1I.Stats().Misses; got != 3 {
		t.Errorf("L1I misses for cold 40-instr block = %d, want 3", got)
	}
	// Re-fetching the same block hits all 3 lines.
	m.FetchLines(first, last)
	if got := m.L1I.Stats().Accesses; got != 6 {
		t.Errorf("L1I accesses after refetch = %d, want 6", got)
	}
	if got := m.L1I.Stats().Misses; got != 3 {
		t.Errorf("refetch should hit: misses = %d, want 3", got)
	}
}

func TestFetchUnalignedBlockLineRange(t *testing.T) {
	// A 17-instruction block starting at instruction 15 occupies
	// bytes [60, 128): 2 lines even though it is barely longer than
	// one line's worth of instructions.
	m := newMach(t)
	m.FetchLines(blockLines(t, 15, 17))
	if got := m.L1I.Stats().Accesses; got != 2 {
		t.Errorf("L1I accesses for unaligned block = %d, want 2", got)
	}
	// A short block touches exactly one line.
	m2 := newMach(t)
	m2.FetchLines(blockLines(t, 3, 12)) // bytes [12, 60): one line
	if got := m2.L1I.Stats().Accesses; got != 1 {
		t.Errorf("L1I accesses for short block = %d, want 1", got)
	}
}

func TestDirtyL1EvictionWritesToL2(t *testing.T) {
	m := newMach(t)
	// L1D 64KB 2-way 64B: set stride 32 KB. Three blocks in one
	// set, first dirty.
	const stride = 32 * 1024 / 8 // word stride mapping to same set
	m.Data(0, true)
	m.Data(stride, false)
	l2Before := m.L2.Stats().Accesses
	m.Data(2*stride, false) // evicts dirty block 0
	// The eviction adds a write-back access on top of the fill.
	if got := m.L2.Stats().Accesses - l2Before; got != 2 {
		t.Errorf("L2 accesses for evicting access = %d, want 2 (writeback+fill)", got)
	}
}

func TestUnitResizeChargesEnergyAndTime(t *testing.T) {
	m := newMach(t)
	m.Issue(1_000_000) // advance time past guard
	for i := 0; i < 100; i++ {
		m.Data(uint64(i*8), true) // dirty lines
	}
	cyclesBefore := m.Timing.Breakdown().ReconfCycles
	if !m.L1DUnit.Request(0, m.Instructions()) {
		t.Fatal("resize request rejected")
	}
	if m.L1D.SizeBytes() != 8*1024 {
		t.Errorf("L1D size after request = %d", m.L1D.SizeBytes())
	}
	if m.Timing.Breakdown().ReconfCycles <= cyclesBefore {
		t.Error("resize should charge reconfiguration cycles")
	}
	if m.ML1D.CurrentSize() != 8*1024 {
		t.Error("meter should track the new size")
	}
}

func TestSnapshotDeltaAndIPC(t *testing.T) {
	m := newMach(t)
	s0 := m.Snapshot()
	m.Issue(400)
	s1 := m.Snapshot()
	d := Delta(s0, s1)
	if d.Instr != 400 {
		t.Errorf("delta instr = %d", d.Instr)
	}
	if d.Cycles != 100 {
		t.Errorf("delta cycles = %d", d.Cycles)
	}
	if d.IPC() != 4.0 {
		t.Errorf("IPC = %v, want 4", d.IPC())
	}
}

func TestSnapshotEnergiesMonotone(t *testing.T) {
	m := newMach(t)
	s0 := m.Snapshot()
	m.Issue(1000)
	m.Data(0, false)
	s1 := m.Snapshot()
	if s1.L1DnJ <= s0.L1DnJ || s1.L2nJ <= s0.L2nJ {
		t.Error("energy must grow with activity (leakage + access)")
	}
}

func TestIPCZeroCycles(t *testing.T) {
	var s Snapshot
	if s.IPC() != 0 {
		t.Error("IPC with zero cycles should be 0")
	}
}

func TestCondBranchChargesMispredicts(t *testing.T) {
	m := newMach(t)
	// Feed a random-ish pattern: some mispredicts must occur.
	for i := 0; i < 1000; i++ {
		m.CondBranch(64, i%3 == 0)
	}
	if m.Pred.Stats().Mispredicts == 0 {
		t.Error("expected some mispredictions")
	}
	if m.Timing.Breakdown().Mispredicts != m.Pred.Stats().Mispredicts {
		t.Error("timing and predictor mispredict counts must agree")
	}
}

func TestTLBMissCharged(t *testing.T) {
	m := newMach(t)
	m.Data(0, false)
	if m.Timing.Breakdown().TLBMisses != 1 {
		t.Errorf("TLB misses = %d, want 1", m.Timing.Breakdown().TLBMisses)
	}
	m.Data(1, false) // same page
	if m.Timing.Breakdown().TLBMisses != 1 {
		t.Error("same-page access must not TLB-miss")
	}
}

func TestUnitsReturnsBothCaches(t *testing.T) {
	m := newMach(t)
	us := m.Units()
	if len(us) != 2 || us[0].Name() != "L1D" || us[1].Name() != "L2" {
		t.Errorf("Units() = %v", us)
	}
}

func TestNewRejectsEmptyConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
}

func TestL2ResizeWritesBackDirty(t *testing.T) {
	m := newMach(t)
	// Dirty many L1D lines, then force them into L2 via L1D resize,
	// then shrink L2: overflow dirty lines must be written back.
	for i := 0; i < 4096; i++ {
		m.Data(uint64(i*8), true)
	}
	m.Issue(1_000_000)
	if !m.L1DUnit.Request(0, m.Instructions()) {
		t.Fatal("L1D resize rejected")
	}
	m.Issue(1_000_000)
	if !m.L2Unit.Request(0, m.Instructions()) {
		t.Fatal("L2 resize rejected")
	}
	if m.L2.SizeBytes() != 128*1024 {
		t.Errorf("L2 size = %d", m.L2.SizeBytes())
	}
}

func TestMustNewAndConfig(t *testing.T) {
	m := MustNew(PaperConfig(10))
	if m.Config().L1ISize != 64*1024 {
		t.Error("Config accessor wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestOnReconfigureHook(t *testing.T) {
	m := newMach(t)
	var events []string
	m.OnReconfigure = func(unit string, setting int, instr uint64) {
		events = append(events, unit)
	}
	m.Issue(1_000_000)
	m.L1DUnit.Request(0, m.Instructions())
	m.Issue(1_000_000)
	m.L2Unit.Request(0, m.Instructions())
	if len(events) != 2 || events[0] != "L1D" || events[1] != "L2" {
		t.Errorf("events = %v", events)
	}
}
