package rtrace

import (
	"encoding/binary"
	"errors"
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

// TestSummarizedReplayMatchesExact: the run walk, which applies the
// arithmetic charges the recorder folded per straight-line run as bulk
// charges, must leave the machine bit-identical to the exact walk,
// which applies every op on its own. A block listener forces the exact walk, so a
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
// accesses at such addresses, two accesses on one low line (once while
// the line is cold, once while it is resident), and finally a plain
// single low access, which stays packed. Every ext body replays its
// access list. It is also a FuzzRecorderCalls seed.
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

// forEachOp calls f with every op of s in order: its shape and its
// operand (0 when the shape carries none).
func forEachOp(s *summary, f func(sh opShape, o uint32)) {
	cur := operandCursor{segs: s.opndSegs}
	for si, g := range s.shapeSegs {
		for _, idx := range g[:min(segOps, s.n-si<<segShift)] {
			sh := s.shapes[idx]
			var o uint32
			if sh.w&opOperandMask != 0 {
				o = cur.next()
			}
			f(sh, o)
		}
	}
}

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
	var ops []uint32
	forEachOp(s, func(sh opShape, o uint32) {
		if sh.w&(1<<opKindBits-1) == opBlock {
			blocks = append(blocks, sh)
			ops = append(ops, o)
		}
	})
	if len(blocks) != 5 {
		t.Fatalf("%d block ops, want 5", len(blocks))
	}
	for i, want := range []uint32{1, 2, 2, 2} {
		if blocks[i].w&opExtBit == 0 {
			t.Fatalf("block op %d packed (shape %#x), want ext", i, blocks[i].w)
		}
		if x := s.ext[ops[i]]; x.nData != want {
			t.Errorf("block op %d: ext record has %d accesses, want %d", i, x.nData, want)
		}
	}
	if last := blocks[4]; last.w&opExtBit != 0 || last.w&opDataBit == 0 || ops[4] != 14<<1 {
		t.Errorf("low single access: shape %#x operand %#x, want packed with operand %#x", last.w, ops[4], 14<<1)
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

// TestShapeTableOverflow: a shape-stream entry indexes at most
// maxShapes shapes. A recording with more distinct op shapes — here
// block ops with more than 65 536 distinct retire batches — must fail
// Finish with ErrMalformed, so its run executes directly; one just
// under the cap must seal and replay.
func TestShapeTableOverflow(t *testing.T) {
	record := func(batches int) (*Trace, error) {
		r := NewSummaryRecorder(fuzzProg, 0)
		r.RecordEnter(0, 0, 0, true)
		for i := 1; i <= batches; i++ {
			r.RecordBlock(1, 0, 0, true)
			r.RecordBatch(uint64(i))
		}
		r.RecordExit()
		r.RecordHalt()
		return r.Finish(true)
	}
	if _, err := record(maxShapes + 1); !errors.Is(err, ErrMalformed) {
		t.Errorf("%d distinct shapes: Finish err = %v, want ErrMalformed", maxShapes+1, err)
	}
	tr, err := record(maxShapes - 16)
	if err != nil {
		t.Fatalf("%d distinct batches: %v", maxShapes-16, err)
	}
	if n := len(tr.sum.shapes); n <= maxShapes-16 || n > maxShapes {
		t.Errorf("shape table holds %d shapes, want (%d, %d]", n, maxShapes-16, maxShapes)
	}
	if err := tr.Replay(fuzzEnv(t)); err != nil {
		t.Errorf("replay: %v", err)
	}
}

// TestRunCrossesSegments: one straight-line run longer than an operand
// segment — 70 000 block ops with a data access each, some missing the
// D-TLB, some mispredicting — must replay identically on the run walk,
// whose data loop crosses the segment boundary mid-run, and on the
// listener walk, which crosses shape and operand segments op by op.
func TestRunCrossesSegments(t *testing.T) {
	const blocks = 70_000
	r := NewSummaryRecorder(fuzzProg, 0)
	r.RecordEnter(0, 0, 0, true)
	for i := 0; i < blocks; i++ {
		r.RecordBlock(1, 0, 0, true)
		r.RecordData(uint64(i*37%100_000), i%3 == 0, i%50 == 0)
		r.RecordBatch(3)
		r.RecordBranch(i%7 != 0)
	}
	r.RecordExit()
	r.RecordHalt()
	tr, err := r.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.summaryFor(fuzzProg)
	if len(s.opndSegs) < 2 || !runStraddlesSegment(s) {
		t.Fatalf("%d operands in %d segments, no run crosses a segment boundary", s.nOpnd, len(s.opndSegs))
	}
	var folded uint64
	for _, run := range s.runs {
		folded = max(folded, run.nData)
	}
	if folded < blocks-1 {
		t.Errorf("longest run folds %d data accesses, want >= %d", folded, blocks-1)
	}

	fused := fuzzEnv(t)
	if err := tr.Replay(fused); err != nil {
		t.Fatalf("run walk: %v", err)
	}
	var log blockLog
	listened := fuzzEnv(t)
	listened.BlockListener = log.listen
	if err := tr.Replay(listened); err != nil {
		t.Fatalf("listener walk: %v", err)
	}
	checkSameState(t, "listener-vs-runs", machineState(listened.Mach), machineState(fused.Mach))
	if log.n != blocks {
		t.Errorf("listener fired %d times, want %d", log.n, blocks)
	}
	if got := fused.Mach.L1D.Stats().Accesses; got != blocks {
		t.Errorf("L1D saw %d accesses, want %d", got, blocks)
	}
}
