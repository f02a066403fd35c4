package rtrace

import (
	"encoding/binary"
	"reflect"
	"testing"

	"acedo/internal/cache"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// freshEnv builds a fresh machine + AOS pair around prog, identical
// across calls, for differential replays of the same trace.
func freshEnv(t *testing.T, prog *program.Program) Env {
	t.Helper()
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	return Env{Prog: prog, Mach: mach, AOS: vm.NewAOS(vm.DefaultParams(), mach, prog)}
}

// machineState flattens everything the machine model accumulates into
// a comparable value: the snapshot counters, both resizable caches'
// stats, and every set's full canonical content (tags, recency order,
// dirty bits, absolute last-use ticks).
func machineState(m *machine.Machine) map[string]any {
	dump := func(c *cache.Cache) [][]cache.LineView {
		sets := make([][]cache.LineView, c.NumSets())
		for s := range sets {
			sets[s] = c.ViewSet(uint64(s))
		}
		return sets
	}
	return map[string]any{
		"snapshot":  m.Snapshot(),
		"instr":     m.Instructions(),
		"l1d.stats": m.L1D.Stats(),
		"l2.stats":  m.L2.Stats(),
		"l1d.tick":  m.L1D.Tick(),
		"l2.tick":   m.L2.Tick(),
		"l1d.sets":  dump(m.L1D),
		"l2.sets":   dump(m.L2),
		"timing":    m.Timing.Breakdown(),
	}
}

func checkSameState(t *testing.T, label string, want, got map[string]any) {
	t.Helper()
	for k, w := range want {
		if !reflect.DeepEqual(w, got[k]) {
			t.Errorf("%s: %s differs:\n want: %+v\n got:  %+v", label, k, w, got[k])
		}
	}
}

// TestSummaryCachedOnce: a trace's summary is built once, at record
// time, and shared by every replay against the recording's program.
func TestSummaryCachedOnce(t *testing.T) {
	prog, tr := directTrace(t, "db", 500_000)
	s1 := tr.summaryFor(prog)
	s2 := tr.summaryFor(prog)
	if s1 == nil || s1 != s2 {
		t.Errorf("summaryFor not cached: %p vs %p", s1, s2)
	}
	// A different program must not resolve against the cached summary.
	spec, _ := workload.ByName("jess")
	other, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.summaryFor(other); s != nil {
		t.Error("summaryFor resolved against a mismatched program")
	}
}

// TestSummarizedReplayMatchesExact: the fused walk, which folds the
// arithmetic charges of straight-line runs into bulk charges, must
// leave the machine bit-identical to the exact walk, which applies
// every op on its own. A block listener forces the exact walk, so a
// no-op one gives the reference.
func TestSummarizedReplayMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"complete", 0},
		{"truncated", 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, tr := directTrace(t, "jess", tc.budget)
			requireSegments(t, tc.name, tr.summaryFor(prog))

			exact := freshEnv(t, prog)
			exact.BlockListener = func(uint64, int) {}
			if err := tr.Replay(exact); err != nil {
				t.Fatalf("exact replay: %v", err)
			}
			want := machineState(exact.Mach)

			sum := freshEnv(t, prog)
			if err := tr.Replay(sum); err != nil {
				t.Fatalf("fused replay: %v", err)
			}
			checkSameState(t, "summarized", want, machineState(sum.Mach))
		})
	}
}

// extPathInput is a driveDirect call sequence whose bodies must all
// take the ext path but one: in method 0, block ops carrying a single
// access at a word address ≥ 2^31 (too wide for the op's operand), two
// accesses at such addresses, two accesses on one low line (exact path
// when the line is cold, footprint bulk path once it is resident), and
// finally a plain single low access, which stays packed. It is also a
// FuzzRecorderCalls seed.
var extPathInput = func() []byte {
	// data encodes a cData call; zz is the zigzag address delta (15
	// escapes to a uvarint that follows).
	data := func(write bool, zz uint64) byte {
		pay := zz << 1
		if write {
			pay |= 1
		}
		return cData | byte(pay)<<3
	}
	const wide = 1 << 31
	in := []byte{cEnter, cBatch | 3<<3}
	// A: one wide access (escaped delta +2^31+5).
	in = append(in, cBlock|1<<3, data(true, 15))
	in = binary.AppendUvarint(in, 2*(wide+5))
	in = append(in, cBatch|2<<3)
	// B: two wide accesses (+1, +7), a mispredicted branch.
	in = append(in, cBlock|1<<3, data(false, 2), data(true, 14), cBatch|4<<3, cBranch)
	// C: two accesses on a cold low line (escaped delta -2^31 → 13, +1).
	in = append(in, cBlock|1<<3, data(false, 15))
	in = binary.AppendUvarint(in, 2*wide-1)
	in = append(in, data(true, 2), cBatch|3<<3)
	// E: the same two accesses again (-1, +1), now resident.
	in = append(in, cBlock|1<<3, data(false, 1), data(true, 2), cBatch|2<<3)
	// D: one low access (+0 → 14), packed.
	in = append(in, cBlock|1<<3, data(false, 0), cBatch|1<<3)
	return append(in, cExit, cExt|extEndHalted<<3)
}()

// TestExtPathWideAndMultiAccess: a packed op holds at most one data
// access, and only one whose wordAddr<<1|write fits the 32-bit
// operand. Multi-access bodies and wide addresses must become ext
// records, and replay bit-identically on the fused and the listener
// walk, with every access reaching the L1D.
func TestExtPathWideAndMultiAccess(t *testing.T) {
	tr, _, err := driveDirect(extPathInput, false)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.summaryFor(fuzzProg)
	var blocks []opShape
	var ops []uint64
	for si, g := range s.segs {
		for _, o := range g[:min(segOps, s.n-si<<segShift)] {
			if sh := s.shapes[o>>32]; sh.w&(1<<opKindBits-1) == opBlock {
				blocks = append(blocks, sh)
				ops = append(ops, o)
			}
		}
	}
	if len(blocks) != 5 {
		t.Fatalf("%d block ops, want 5", len(blocks))
	}
	for i, want := range []uint32{1, 2, 2, 2} {
		if blocks[i].w&opExtBit == 0 {
			t.Fatalf("block op %d packed (shape %#x), want ext", i, blocks[i].w)
		}
		if x := s.ext[uint32(ops[i])]; x.nData != want {
			t.Errorf("block op %d: ext record has %d accesses, want %d", i, x.nData, want)
		}
	}
	if x := s.ext[uint32(ops[2])]; !x.fastOK || x.nFoot != 1 {
		t.Errorf("one-line body: fastOK %v nFoot %d, want a 1-line bulk-applicable footprint", x.fastOK, x.nFoot)
	}
	if last := blocks[4]; last.w&opExtBit != 0 || last.w&opDataBit == 0 || ops[4]&maxOperand != 14<<1 {
		t.Errorf("low single access: shape %#x operand %#x, want packed with operand %#x", last.w, ops[4]&maxOperand, 14<<1)
	}

	fused := fuzzEnv(t)
	if err := tr.Replay(fused); err != nil {
		t.Fatalf("fused replay: %v", err)
	}
	var log blockLog
	listened := fuzzEnv(t)
	listened.BlockListener = log.listen
	if err := tr.Replay(listened); err != nil {
		t.Fatalf("listener replay: %v", err)
	}
	checkSameState(t, "listener-vs-fused", machineState(fused.Mach), machineState(listened.Mach))
	if log.n != 5 {
		t.Errorf("listener fired %d times, want 5 (the entry does not fire)", log.n)
	}
	if got := fused.Mach.L1D.Stats().Accesses; got != 8 {
		t.Errorf("L1D saw %d accesses, want 8", got)
	}
}
