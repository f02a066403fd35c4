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
// which applies every op on its own. A block listener whose Due is 0
// makes every run walk op by op, so a blockLog gives the reference.
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
			exact.BlockListener = &blockLog{}
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

// Word addresses of the ext-path input's accesses around the operand
// stream's reach: the last word of the last data block whose index
// fits 15 bits, and the first word of the next block.
const (
	lastPackedWord = 1<<(15+blockWordShift) - 1
	firstWideWord  = 1 << (15 + blockWordShift)
)

// extPathBlocks lists the ext-path input's block ops in order: the
// method-0 block each enters, its data accesses, and whether it must
// pack (the others must become ext records).
var extPathBlocks = []struct {
	block  int
	nData  int
	packed bool
}{
	{1, 1, false}, // A: one access at a word address ≥ 2^31
	{2, 2, false}, // B: two such accesses, a mispredicted branch
	{3, 2, false}, // C: two accesses on one cold low line
	{4, 2, false}, // E: the same two again, now resident
	{5, 1, true},  // F: one access in the last block that fits
	{6, 1, false}, // G: one access in the first block that does not
	{1, 1, true},  // D: one low access
}

// extPathInput is a driveDirect call sequence whose bodies must all
// take the ext path but two: in method 0, block ops carrying a single
// access at a word address ≥ 2^31 (too wide for the op's operand), two
// accesses at such addresses, two accesses on one low line (once while
// the line is cold, once while it is resident), a single access in the
// last data block whose index fits the operand's 15 bits (packed) and
// one in the first that does not (ext), and finally a plain single low
// access, which stays packed. Every ext body replays its access list.
// It is also a FuzzRecorderCalls seed.
var extPathInput = func() []byte {
	in := []byte{cEnter, cBatch | 3<<3}
	var prev uint64
	// access appends a one-access body at word address addr, its
	// delta escaped and zigzag-encoded.
	access := func(write bool, addr uint64) {
		pay := byte(15 << 1)
		if write {
			pay |= 1
		}
		d := int64(addr - prev)
		in = append(in, cData|pay<<3)
		in = binary.AppendUvarint(in, uint64(d<<1^d>>63))
		prev = addr
	}
	const wide = 1 << 31
	block := func(i int) byte { return cBlock | byte(extPathBlocks[i].block)<<3 }
	in = append(in, block(0))
	access(true, wide+5)
	in = append(in, cBatch|2<<3, block(1))
	access(false, wide+6)
	access(true, wide+13)
	in = append(in, cBatch|4<<3, cBranch, block(2))
	access(false, 13)
	access(true, 14)
	in = append(in, cBatch|3<<3, block(3))
	access(false, 13)
	access(true, 14)
	in = append(in, cBatch|2<<3, block(4))
	access(true, lastPackedWord)
	in = append(in, cBatch|1<<3, block(5))
	access(false, firstWideWord)
	in = append(in, cBatch|1<<3, block(6))
	access(false, 14)
	in = append(in, cBatch|1<<3)
	return append(in, cExit, cExt|extEndHalted<<3)
}()

// forEachOp calls f with every op of s in order: its shape, its
// operand (0 when the shape carries none), and its ext record (nil
// for a packed op), read by position as the exact walk reads them:
// each group's ops one by one, each data op taking one access of the
// current operand-stream entry.
func forEachOp(s *summary, f func(sh opShape, o uint16, x *sumExt)) {
	cur := entryCursor{s.opnds.cursor(), s.counts.cursor()}
	ext := s.ext.cursor()
	var o uint16
	var left uint8
	for si := range s.groups.segs {
		for _, g := range s.groups.seg(si) {
			sh := s.shapes[g.shape]
			for range g.n {
				var x *sumExt
				if sh.w&opDataBit != 0 {
					if left == 0 {
						o, left = cur.next()
					}
					left--
				}
				if sh.w&opExtBit != 0 {
					x = ext.next()
				}
				f(sh, o, x)
			}
		}
	}
}

// entryLog is an exact block listener (Due 0) that logs each block
// entry's pc and the L1D accesses made before it.
type entryLog struct {
	mach    *machine.Machine
	entries [][2]uint64
}

func (l *entryLog) OnBlock(pc uint64, instrs int) {
	l.entries = append(l.entries, [2]uint64{pc, l.mach.L1D.Stats().Accesses})
}

func (l *entryLog) Accumulate(pc uint64, instrs int, n uint64) {
	for ; n > 0; n-- {
		l.OnBlock(pc, instrs)
	}
}

func (l *entryLog) Due() uint64 { return 0 }

// TestExtPathWideAndMultiAccess: a packed op holds at most one data
// access, and only one whose data block index fits the operand's 15
// bits. Multi-access bodies and wider blocks must become ext records,
// read by position, and replay bit-identically on the fused and the
// listener walk. Each block entry must reach the listener with its own
// block's pc after exactly the accesses of the ops before it, and the
// L1D must end as a twin fed every access's full address directly.
func TestExtPathWideAndMultiAccess(t *testing.T) {
	tr, _, err := driveDirect(extPathInput, false)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.summaryFor(fuzzProg)
	type blockOp struct {
		sh opShape
		o  uint16
		x  *sumExt
	}
	var blocks []blockOp
	forEachOp(s, func(sh opShape, o uint16, x *sumExt) {
		if sh.w&(1<<opKindBits-1) == opBlock {
			blocks = append(blocks, blockOp{sh, o, x})
		}
	})
	if len(blocks) != len(extPathBlocks) {
		t.Fatalf("%d block ops, want %d", len(blocks), len(extPathBlocks))
	}
	m := fuzzProg.Method(0)
	for i, want := range extPathBlocks {
		got := blocks[i]
		if want.packed != (got.x == nil) {
			t.Fatalf("block op %d: packed %v (shape %#x), want %v", i, got.x == nil, got.sh.w, want.packed)
		}
		if !want.packed && (got.x.nData != uint32(want.nData) || got.x.pc != m.Blocks[want.block].PC) {
			t.Errorf("block op %d: ext record has %d accesses at pc %d, want %d at pc %d",
				i, got.x.nData, got.x.pc, want.nData, m.Blocks[want.block].PC)
		}
	}
	if f := blocks[4]; f.o != (1<<15-1)<<1|1 {
		t.Errorf("last packable block: operand %#x, want %#x", f.o, (1<<15-1)<<1|1)
	}
	if d := blocks[6]; d.o != 1<<1 {
		t.Errorf("low single access (word 14): operand %#x, want block 1's %#x", d.o, 1<<1)
	}

	fused := fuzzEnv(t)
	if err := tr.Replay(fused); err != nil {
		t.Fatalf("fused replay: %v", err)
	}
	listened := fuzzEnv(t)
	log := &entryLog{mach: listened.Mach}
	listened.BlockListener = log
	if err := tr.Replay(listened); err != nil {
		t.Fatalf("listener replay: %v", err)
	}
	checkSameState(t, "listener-vs-fused", machineState(fused.Mach), machineState(listened.Mach))
	var want [][2]uint64
	var before uint64
	for _, b := range extPathBlocks {
		want = append(want, [2]uint64{m.Blocks[b.block].PC, before})
		before += uint64(b.nData)
	}
	if !reflect.DeepEqual(log.entries, want) {
		t.Errorf("block entries (pc, L1D accesses before) %v, want %v", log.entries, want)
	}

	// The twin sees each access's full byte address, in input order.
	l1d := fused.Mach.L1D
	twin := cache.MustNew("twin", l1d.SizeBytes(), l1d.BlockBytes(), l1d.Ways())
	const wide = 1 << 31
	for _, a := range []struct {
		word  uint64
		write bool
	}{
		{wide + 5, true}, {wide + 6, false}, {wide + 13, true}, {13, false}, {14, true},
		{13, false}, {14, true}, {lastPackedWord, true}, {firstWideWord, false}, {14, false},
	} {
		twin.Access(a.word*8, a.write)
	}
	if l1d.Stats() != twin.Stats() || l1d.Tick() != twin.Tick() {
		t.Errorf("L1D stats %+v tick %d, twin %+v tick %d", l1d.Stats(), l1d.Tick(), twin.Stats(), twin.Tick())
	}
	for set := uint64(0); set < uint64(l1d.NumSets()); set++ {
		if g, w := l1d.ViewSet(set), twin.ViewSet(set); !reflect.DeepEqual(g, w) {
			t.Errorf("L1D set %d: %+v, twin %+v", set, g, w)
		}
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
			r.RecordBody(nil, uint64(i), vm.BranchNone)
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

// TestRunCrossesSegments: one straight-line run of 70 000 block ops
// with a data access each, some missing the D-TLB, some mispredicting,
// recorded in the test layout, must replay identically on the run
// walk, whose data loop crosses operand-segment boundaries mid-run; on
// the exact walk, which crosses group and operand segments op by op;
// and with a probe whose first interval bound falls in the run.
func TestRunCrossesSegments(t *testing.T) {
	const blocks = 70_000
	r := newRecorder(fuzzProg, testLayout)
	r.RecordEnter(0, 0, 0, true)
	for i := 0; i < blocks; i++ {
		r.RecordBlock(1, 0, 0, true)
		verdict := vm.BranchCorrect
		if i%7 == 0 {
			verdict = vm.BranchWrong
		}
		r.RecordBody([]uint64{vm.BodyData(uint64(i*37%100_000), i%3 == 0, i%50 == 0)}, 3, verdict)
	}
	r.RecordExit()
	r.RecordHalt()
	tr, err := r.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.summaryFor(fuzzProg)
	if len(s.groups.segs) < 3 || !runStraddlesSegment(s) {
		t.Fatalf("%d groups in %d segments, %d entries in %d: no run crosses a segment boundary",
			s.groups.n, len(s.groups.segs), s.opnds.n, len(s.opnds.segs))
	}
	var folded uint64
	forEachRun(s, func(run sumRun) { folded = max(folded, run.nData) })
	if folded < blocks-1 {
		t.Errorf("longest run folds %d data accesses, want >= %d", folded, blocks-1)
	}

	fused := fuzzEnv(t)
	if err := tr.Replay(fused); err != nil {
		t.Fatalf("run walk: %v", err)
	}
	var log blockLog
	listened := fuzzEnv(t)
	listened.BlockListener = &log
	if err := tr.Replay(listened); err != nil {
		t.Fatalf("listener walk: %v", err)
	}
	checkSameState(t, "listener-vs-runs", machineState(listened.Mach), machineState(fused.Mach))
	if log.n != blocks {
		t.Errorf("listener fired %d times, want %d", log.n, blocks)
	}
	// The run retires 3 instructions per block, so the first bound of
	// either interval falls in it (3·66 000) or on its last
	// instruction (3·70 000), and the walk applies it op by op.
	for _, every := range []uint64{3 * blocks, 3 * 66_000} {
		exact := fuzzEnv(t)
		want := newProbe(exact.Mach, every, true)
		exact.BlockListener = want
		folded := fuzzEnv(t)
		got := newProbe(folded.Mach, every, false)
		folded.BlockListener = got
		if err := tr.Replay(exact); err != nil {
			t.Fatal(err)
		}
		if err := tr.Replay(folded); err != nil {
			t.Fatal(err)
		}
		checkSameState(t, "folded-vs-runs", machineState(fused.Mach), machineState(folded.Mach))
		if !got.same(want) {
			t.Errorf("every %d: folded probe crossed %d times (hash %x, sum %x), exact %d (hash %x, sum %x)",
				every, got.n, got.h, got.sum, want.n, want.h, want.sum)
		}
	}
	if got := fused.Mach.L1D.Stats().Accesses; got != blocks {
		t.Errorf("L1D saw %d accesses, want %d", got, blocks)
	}
}

// TestFoldReachesDue pins the two edges of a folding replay with a
// probe whose interval bound is 20 instructions. The first run (three
// 4-instruction blocks, ending at 12) folds; the second (two more and
// an empty-bodied block whose entry lands at 20) ends exactly at the
// bound, so it must walk op by op and deliver the crossing on that
// last entry; and the first run's folded entries must reach the probe
// before the crossing does.
func TestFoldReachesDue(t *testing.T) {
	r := NewSummaryRecorder(fuzzProg, 0)
	r.RecordEnter(0, 0, 0, true)
	for i := 0; i < 3; i++ {
		r.RecordBlock(1, 0, 0, true)
		r.RecordBody(nil, 4, vm.BranchNone)
	}
	r.RecordEnter(0, 0, 0, true)
	for i := 0; i < 2; i++ {
		r.RecordBlock(1, 0, 0, true)
		r.RecordBody(nil, 4, vm.BranchNone)
	}
	r.RecordBlock(2, 0, 0, true)
	r.RecordExit()
	r.RecordBlock(1, 0, 0, true)
	r.RecordBody(nil, 4, vm.BranchNone)
	r.RecordExit()
	r.RecordHalt()
	tr, err := r.Finish(true)
	if err != nil {
		t.Fatal(err)
	}

	exact, folded := fuzzEnv(t), fuzzEnv(t)
	want, got := newProbe(exact.Mach, 20, true), newProbe(folded.Mach, 20, false)
	exact.BlockListener, folded.BlockListener = want, got
	if err := tr.Replay(exact); err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(folded); err != nil {
		t.Fatal(err)
	}
	if want.n != 1 || want.next != 40 {
		t.Fatalf("exact probe crossed %d times, next bound %d; want once, at 20", want.n, want.next)
	}
	checkSameState(t, "folded-vs-exact", machineState(exact.Mach), machineState(folded.Mach))
	if !got.same(want) {
		t.Errorf("folded probe crossed %d times (hash %x, sum %x), exact %d (hash %x, sum %x)",
			got.n, got.h, got.sum, want.n, want.h, want.sum)
	}
}

// TestRunLengthSplits pins the two run-length caps. Three method
// calls each run a one-block loop of 70 000 ops of one shape, so each
// run's ops split into a group of 65 535 and one of 4 465; the loop
// walks data blocks 300 accesses at a time, so each block's stretch
// splits into an entry of 255 accesses and one of 45, with the write
// flags of its accesses ORed into each. The fused walk, the exact walk
// and a folding probe whose bound falls in the second call must leave
// identical machines, the probes must agree, and the L1D must end as a
// twin fed every access
// at its full address. The blocks share 8 of the L1D's sets, so the
// stretches evict one another, dirty lines included.
func TestRunLengthSplits(t *testing.T) {
	const (
		calls   = 3
		ops     = 70_000
		stretch = 300
	)
	word := func(i int) uint64 { return uint64(i/stretch)*64*8 + uint64(i%8) }
	r := NewSummaryRecorder(fuzzProg, 0)
	r.RecordEnter(0, 0, 0, true)
	for c := 0; c < calls; c++ {
		r.RecordEnter(0, 0, 0, true)
		for i := 0; i < ops; i++ {
			r.RecordBlock(1, 0, 0, true)
			r.RecordBody([]uint64{vm.BodyData(word(i), i%97 == 0, false)}, 3, vm.BranchCorrect)
		}
		r.RecordExit()
	}
	r.RecordExit()
	r.RecordHalt()
	tr, err := r.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.summaryFor(fuzzProg)
	var long []sumRun
	forEachRun(s, func(run sumRun) {
		if run.nData != 0 {
			long = append(long, run)
		}
	})
	const entriesPerRun = 2*(ops/stretch) + 1
	if len(long) != calls {
		t.Fatalf("%d runs with data, want %d", len(long), calls)
	}
	for _, run := range long {
		if run.nData != ops || run.nEnt != entriesPerRun {
			t.Errorf("run of %d accesses in %d entries, want %d in %d", run.nData, run.nEnt, ops, entriesPerRun)
		}
	}
	var groups []shapeGroup
	for si := range s.groups.segs {
		for _, g := range s.groups.seg(si) {
			if g.n > 1 {
				groups = append(groups, g)
			}
		}
	}
	if len(groups) != 2*calls || groups[0].n != maxGroup || groups[1].n != ops-maxGroup {
		t.Errorf("groups of more than one op: %+v, want %d alternating %d and %d", groups, 2*calls, maxGroup, ops-maxGroup)
	}
	var full int
	for si := range s.counts.segs {
		for _, k := range s.counts.seg(si) {
			if k == maxCount {
				full++
			}
		}
	}
	if full != calls*(ops/stretch) {
		t.Errorf("%d entries of %d accesses, want %d", full, maxCount, calls*(ops/stretch))
	}

	fused := fuzzEnv(t)
	if err := tr.Replay(fused); err != nil {
		t.Fatalf("run walk: %v", err)
	}
	// The probe's bound, 1.5 calls in, falls in the second call.
	const every = 3 * ops * 3 / 2
	exact, folded := fuzzEnv(t), fuzzEnv(t)
	wantProbe, gotProbe := newProbe(exact.Mach, every, true), newProbe(folded.Mach, every, false)
	exact.BlockListener, folded.BlockListener = wantProbe, gotProbe
	if err := tr.Replay(exact); err != nil {
		t.Fatalf("exact walk: %v", err)
	}
	if err := tr.Replay(folded); err != nil {
		t.Fatalf("folding walk: %v", err)
	}
	want := machineState(fused.Mach)
	checkSameState(t, "exact-vs-fused", want, machineState(exact.Mach))
	checkSameState(t, "folded-vs-fused", want, machineState(folded.Mach))
	if wantProbe.n != 1 || !gotProbe.same(wantProbe) {
		t.Errorf("folded probe crossed %d times (hash %x, sum %x), exact %d (hash %x, sum %x); want once",
			gotProbe.n, gotProbe.h, gotProbe.sum, wantProbe.n, wantProbe.h, wantProbe.sum)
	}

	l1d := fused.Mach.L1D
	twin := cache.MustNew("twin", l1d.SizeBytes(), l1d.BlockBytes(), l1d.Ways())
	for c := 0; c < calls; c++ {
		for i := 0; i < ops; i++ {
			twin.Access(word(i)*8, i%97 == 0)
		}
	}
	if l1d.Stats() != twin.Stats() || l1d.Tick() != twin.Tick() || l1d.Stats().Writebacks == 0 {
		t.Errorf("L1D stats %+v tick %d, twin %+v tick %d (want equal, with writebacks)", l1d.Stats(), l1d.Tick(), twin.Stats(), twin.Tick())
	}
	for set := uint64(0); set < uint64(l1d.NumSets()); set++ {
		if g, w := l1d.ViewSet(set), twin.ViewSet(set); !reflect.DeepEqual(g, w) {
			t.Errorf("L1D set %d: %+v, twin %+v", set, g, w)
		}
	}
}
