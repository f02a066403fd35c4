package rtrace

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// benchEngine builds a benchmark's program and a fresh engine to run
// it on, returning the engine's machine too.
func benchEngine(t *testing.T, bench string) (*program.Program, *vm.Engine, *machine.Machine) {
	t.Helper()
	spec, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no %s benchmark", bench)
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	aos := vm.NewAOS(vm.DefaultParams(), mach, prog)
	eng, err := vm.NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	return prog, eng, mach
}

// recordDirect runs eng under a fresh recorder (with no size hint,
// like every production caller) and seals the trace.
func recordDirect(t *testing.T, prog *program.Program, eng *vm.Engine, budget uint64) *Trace {
	t.Helper()
	rec := NewSummaryRecorder(prog, 0)
	if err := eng.SetRecorder(rec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(budget); err != nil && err != vm.ErrBudget {
		t.Fatal(err)
	}
	tr, err := rec.Finish(eng.Halted())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// directTrace records bench on a fresh engine and returns its program
// and sealed trace. A zero budget runs to completion (complete trace);
// a non-zero budget yields a truncated trace, which replays in
// divergence-checking mode.
func directTrace(t *testing.T, bench string, budget uint64) (*program.Program, *Trace) {
	t.Helper()
	prog, eng, _ := benchEngine(t, bench)
	return prog, recordDirect(t, prog, eng, budget)
}

// measuredRecording records bench to completion and reports the bytes
// the recording allocated and the live heap it left behind, with the
// program and engine built beforehand so neither counts.
func measuredRecording(t *testing.T, bench string) (tr *Trace, allocated, live int64) {
	t.Helper()
	prog, eng, _ := benchEngine(t, bench)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr = recordDirect(t, prog, eng, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The engine (and its machine) must outlive the "after" reading,
	// or its collection would offset the trace in the live-heap delta.
	runtime.KeepAlive(eng)
	return tr, int64(after.TotalAlloc - before.TotalAlloc), int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// requireSegments fails unless s spans at least three shape segments
// and some run's data operands straddle an operand-segment boundary, so
// a differential test using it crosses segment boundaries both inside
// the run walk's data loop and in listener replays.
func requireSegments(t *testing.T, label string, s *summary) {
	t.Helper()
	if len(s.shapeSegs) < 3 {
		t.Fatalf("%s: %d ops in %d shape segments, want at least 3 segments", label, s.n, len(s.shapeSegs))
	}
	if !runStraddlesSegment(s) {
		t.Fatalf("%s: no run's data operands cross an operand-segment boundary", label)
	}
}

// runStraddlesSegment reports whether some run's data operands span
// two operand segments.
func runStraddlesSegment(s *summary) bool {
	pos := 0 // the run's first operand
	for _, r := range s.runs {
		if r.nData > 1 && pos>>segShift != (pos+int(r.nData)-1)>>segShift {
			return true
		}
		pos += int(r.nData)
		if s.shapes[r.shape].w&opOperandMask != 0 {
			pos++
		}
	}
	return false
}

// blockLog folds every block-listener call into an order-sensitive
// hash, so two runs fired the listener identically exactly when their
// counts and hashes match. Its Due is 0, so a replay calls OnBlock on
// every entry, in order: the exact walk.
type blockLog struct {
	n, h uint64
}

func (l *blockLog) OnBlock(pc uint64, instrs int) {
	l.n++
	l.h = (l.h^pc)*1099511628211 ^ uint64(instrs)
}

func (l *blockLog) Accumulate(pc uint64, instrs int, n uint64) {
	for ; n > 0; n-- {
		l.OnBlock(pc, instrs)
	}
}

func (l *blockLog) Due() uint64 { return 0 }

// probe is a folding block listener shaped like an interval detector:
// an entry adds an order-free weight to sum, and the first entry at or
// past next also logs sum and the instruction count into an
// order-sensitive hash, clears sum and sets next every instructions
// on. Its Due is next, so replays fold the entries below it; with
// exact set it reports 0 instead, and replays walk every run op by op.
type probe struct {
	mach        *machine.Machine
	every, next uint64
	exact       bool
	sum         uint64 // weight of the entries since the last crossing
	n, h        uint64 // crossings, and their hash
}

func newProbe(mach *machine.Machine, every uint64, exact bool) *probe {
	return &probe{mach: mach, every: every, next: mach.Instructions() + every, exact: exact}
}

func (p *probe) OnBlock(pc uint64, instrs int) {
	p.Accumulate(pc, instrs, 1)
	if now := p.mach.Instructions(); now >= p.next {
		p.n++
		p.h = (p.h ^ p.sum ^ now<<32) * 1099511628211
		p.sum = 0
		p.next = now + p.every
	}
}

func (p *probe) Accumulate(pc uint64, instrs int, n uint64) {
	p.sum += n * (pc*0x9E3779B97F4A7C15 ^ uint64(instrs))
}

func (p *probe) Due() uint64 {
	if p.exact {
		return 0
	}
	return p.next
}

// same reports whether two probes saw the same crossings and hold the
// same residual sum.
func (p *probe) same(q *probe) bool {
	return p.n == q.n && p.h == q.h && p.sum == q.sum && p.next == q.next
}

// tee installs two listeners in the engine's one slot.
type tee [2]vm.BlockListener

func (t tee) OnBlock(pc uint64, instrs int) {
	t[0].OnBlock(pc, instrs)
	t[1].OnBlock(pc, instrs)
}

func (t tee) Accumulate(pc uint64, instrs int, n uint64) {
	t[0].Accumulate(pc, instrs, n)
	t[1].Accumulate(pc, instrs, n)
}

func (t tee) Due() uint64 { return min(t[0].Due(), t[1].Due()) }

// probeEvery is the probes' interval: short enough that a suite trace
// crosses it thousands of times, in runs of every length.
const probeEvery = 9_973

// checkProbes replays tr with a folding probe and with an exact one,
// and fails unless each leaves the machine as want and saw exactly the
// direct run's probe.
func checkProbes(t *testing.T, label string, prog *program.Program, tr *Trace, want map[string]any, direct *probe) {
	t.Helper()
	for _, exact := range []bool{false, true} {
		env := freshEnv(t, prog)
		p := newProbe(env.Mach, probeEvery, exact)
		env.BlockListener = p
		if err := tr.Replay(env); err != nil {
			t.Fatalf("%s: probe replay (exact %v): %v", label, exact, err)
		}
		checkSameState(t, label+"/probe", want, machineState(env.Mach))
		if direct.n == 0 || !p.same(direct) {
			t.Errorf("%s: probe (exact %v) crossed %d times (hash %x, sum %x), direct %d (hash %x, sum %x)",
				label, exact, p.n, p.h, p.sum, direct.n, direct.h, direct.sum)
		}
	}
}

// TestReplayMatchesRecording is the replay engine's differential gate,
// with direct execution as the oracle: across every suite workload,
// complete and truncated, a trace replayed into a fresh machine must
// leave it bit-identical to the recording run's own machine — snapshot
// counters, L1D/L2 stats and LRU clocks, every set's content, and the
// timing breakdown — both on the fused path and with a block listener,
// which must also fire exactly as the recording run's did.
// Every complete recording must also cost at most 6.5 bytes per op.
func TestReplayMatchesRecording(t *testing.T) {
	for _, spec := range workload.Suite() {
		for _, budget := range []uint64{0, 2_000_000} {
			label := spec.Name
			if budget != 0 {
				label += "/truncated"
			}
			prog, eng, mach := benchEngine(t, spec.Name)
			var direct blockLog
			directProbe := newProbe(mach, probeEvery, false)
			eng.SetBlockListener(tee{&direct, directProbe})
			tr := recordDirect(t, prog, eng, budget)
			if tr.Truncated() != (budget != 0) {
				t.Errorf("%s: truncated = %v", label, tr.Truncated())
			}
			s := tr.summaryFor(prog)
			requireSegments(t, label, s)
			// Format size: an op costs 2 bytes of shape stream plus
			// 4 of operand when it has a data access or ext record
			// (74-92% of a suite trace's ops); runs, the shape and side
			// tables and the segments' slack must fit the rest.
			if mem := tr.MemBytes(); budget == 0 && 2*mem > 13*s.n {
				t.Errorf("%s: MemBytes %d for %d ops (%.2f bytes/op), want <= 6.5", label, mem, s.n, float64(mem)/float64(s.n))
			}
			want := machineState(mach)

			fused := freshEnv(t, prog)
			if err := tr.Replay(fused); err != nil {
				t.Fatalf("%s: fused replay: %v", label, err)
			}
			checkSameState(t, label+"/fused", want, machineState(fused.Mach))

			var replayed blockLog
			listened := freshEnv(t, prog)
			listened.BlockListener = &replayed
			if err := tr.Replay(listened); err != nil {
				t.Fatalf("%s: listener replay: %v", label, err)
			}
			checkSameState(t, label+"/listener", want, machineState(listened.Mach))
			if direct.n == 0 || replayed != direct {
				t.Errorf("%s: listener fired %d times (hash %x), recording fired %d (hash %x)",
					label, replayed.n, replayed.h, direct.n, direct.h)
			}
			checkProbes(t, label, prog, tr, want, directProbe)
		}
	}
}

// checkSameSummary fails unless two summaries are op-identical: the
// same shape and operand streams, runs, shape and side tables, and
// program fingerprint.
func checkSameSummary(t *testing.T, label string, want, got *summary) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: missing summary (want %v, got %v)", label, want != nil, got != nil)
	}
	if got.n != want.n || len(got.shapeSegs) != len(want.shapeSegs) {
		t.Fatalf("%s: %d ops in %d segments, want %d in %d", label, got.n, len(got.shapeSegs), want.n, len(want.shapeSegs))
	}
	for si := range want.shapeSegs {
		n := min(segOps, want.n-si<<segShift)
		if *want.shapeSegs[si] != *got.shapeSegs[si] {
			for j := 0; j < n; j++ {
				if w, g := want.shapeSegs[si][j], got.shapeSegs[si][j]; w != g {
					t.Fatalf("%s: op %d's shape differs: got %d, want %d", label, si<<segShift+j, g, w)
				}
			}
		}
	}
	if got.nOpnd != want.nOpnd || len(got.opndSegs) != len(want.opndSegs) {
		t.Fatalf("%s: %d operands in %d segments, want %d in %d", label, got.nOpnd, len(got.opndSegs), want.nOpnd, len(want.opndSegs))
	}
	for si := range want.opndSegs {
		n := min(segOps, want.nOpnd-si<<segShift)
		if *want.opndSegs[si] != *got.opndSegs[si] {
			for j := 0; j < n; j++ {
				if w, g := want.opndSegs[si][j], got.opndSegs[si][j]; w != g {
					t.Fatalf("%s: operand %d differs: got %#x, want %#x", label, si<<segShift+j, g, w)
				}
			}
		}
	}
	if !reflect.DeepEqual(got.runs, want.runs) {
		t.Errorf("%s: runs differ (%d vs %d runs)", label, len(got.runs), len(want.runs))
	}
	if !reflect.DeepEqual(got.shapes, want.shapes) {
		t.Errorf("%s: shape table differs (%d vs %d shapes)", label, len(got.shapes), len(want.shapes))
	}
	if !reflect.DeepEqual(got.ext, want.ext) {
		t.Errorf("%s: ext table differs (%d vs %d records)", label, len(got.ext), len(want.ext))
	}
	if !reflect.DeepEqual(got.data, want.data) {
		t.Errorf("%s: data table differs (%d vs %d accesses)", label, len(got.data), len(want.data))
	}
	if got.progSig != want.progSig {
		t.Errorf("%s: progSig %#x, want %#x", label, got.progSig, want.progSig)
	}
}

// TestDirectSummaryOpIdentical: the summary a recording builds depends
// only on the run's architectural stream. Across every suite workload,
// complete and truncated, a recording made on a plain engine with no
// size hint and one made on an engine with a block listener attached
// and an instruction-count hint must be op-identical, with the same
// event count and truncation flag.
func TestDirectSummaryOpIdentical(t *testing.T) {
	for _, spec := range workload.Suite() {
		for _, budget := range []uint64{0, 2_000_000} {
			label := spec.Name
			if budget != 0 {
				label += "/truncated"
			}
			prog, eng, mach := benchEngine(t, spec.Name)
			plain := recordDirect(t, prog, eng, budget)

			prog2, eng, _ := benchEngine(t, spec.Name)
			var log blockLog
			eng.SetBlockListener(&log)
			rec := NewSummaryRecorder(prog2, mach.Instructions())
			if err := eng.SetRecorder(rec); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(budget); err != nil && err != vm.ErrBudget {
				t.Fatal(err)
			}
			listened, err := rec.Finish(eng.Halted())
			if err != nil {
				t.Fatal(err)
			}

			if log.n == 0 {
				t.Errorf("%s: block listener never fired", label)
			}
			if listened.Truncated() != plain.Truncated() {
				t.Errorf("%s: truncated %v, want %v", label, listened.Truncated(), plain.Truncated())
			}
			if listened.Events() != plain.Events() {
				t.Errorf("%s: events %d, want %d", label, listened.Events(), plain.Events())
			}
			requireSegments(t, label, plain.summaryFor(prog))
			checkSameSummary(t, label, plain.summaryFor(prog), listened.summaryFor(prog))
		}
	}
}

// TestBaselineModeRecordingOpIdentical: the stepped path reports
// through the same recorder calls as the batched one, one instruction,
// access or verdict per call. On compress and jack, complete and
// truncated, a recording made under vm.ModeBaseline must be
// op-identical to one made under the default ModeOptimized, with the
// same truncation flag. (Event counts differ: the stepped path reports
// one retire batch per instruction.) compress's stepped D-TLB misses
// are all loads; jack adds store misses.
func TestBaselineModeRecordingOpIdentical(t *testing.T) {
	for _, bench := range []string{"compress", "jack"} {
		for _, budget := range []uint64{0, 2_000_000} {
			label := bench
			if budget != 0 {
				label += "/truncated"
			}
			prog, eng, _ := benchEngine(t, bench)
			optimized := recordDirect(t, prog, eng, budget)

			prog2, eng, _ := benchEngine(t, bench)
			eng.SetMode(vm.ModeBaseline)
			stepped := recordDirect(t, prog2, eng, budget)

			if stepped.Truncated() != optimized.Truncated() {
				t.Errorf("%s: truncated %v, want %v", label, stepped.Truncated(), optimized.Truncated())
			}
			checkSameSummary(t, label, optimized.summaryFor(prog), stepped.summaryFor(prog))
		}
	}
}

// TestDirectReplayMatchesByteOracle checks replay against an oracle
// independent of the recording: a direct run of the program on a fresh
// engine with no recorder attached. On jess, complete and truncated,
// the replayed machine must match the oracle's bit for bit, on the
// fused path and with a block listener, and the listener must fire
// exactly as it did in the oracle run.
func TestDirectReplayMatchesByteOracle(t *testing.T) {
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

			_, eng, mach := benchEngine(t, "jess")
			var direct blockLog
			directProbe := newProbe(mach, probeEvery, false)
			eng.SetBlockListener(tee{&direct, directProbe})
			if err := eng.Run(tc.budget); err != nil && err != vm.ErrBudget {
				t.Fatal(err)
			}
			if eng.Halted() == tr.Truncated() {
				t.Errorf("oracle halted = %v, trace truncated = %v", eng.Halted(), tr.Truncated())
			}
			want := machineState(mach)

			fused := freshEnv(t, prog)
			if err := tr.Replay(fused); err != nil {
				t.Fatalf("fused replay: %v", err)
			}
			checkSameState(t, "fused", want, machineState(fused.Mach))

			var replayed blockLog
			listened := freshEnv(t, prog)
			listened.BlockListener = &replayed
			if err := tr.Replay(listened); err != nil {
				t.Fatalf("listener replay: %v", err)
			}
			checkSameState(t, "listener", want, machineState(listened.Mach))
			if direct.n == 0 || replayed != direct {
				t.Errorf("listener fired %d times (hash %x), oracle fired %d (hash %x)",
					replayed.n, replayed.h, direct.n, direct.h)
			}
			checkProbes(t, tc.name, prog, tr, want, directProbe)
		})
	}
}

// TestReplayMalformed: a trace replays only against the program it was
// recorded from. Any other program must fail with an error wrapping
// ErrMalformed — the class the experiment layer falls back to direct
// execution on.
func TestReplayMalformed(t *testing.T) {
	_, tr := directTrace(t, "jess", 200_000)
	spec, _ := workload.ByName("db")
	other, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(freshEnv(t, other)); !errors.Is(err, ErrMalformed) {
		t.Errorf("replay against a mismatched program: err = %v, want ErrMalformed", err)
	}
}

// TestDirectTraceMemBytes: MemBytes (what cache budgets charge) must
// count the summary's arrays, and Prime must leave it unchanged — the
// summary is complete from Finish.
func TestDirectTraceMemBytes(t *testing.T) {
	prog, tr := directTrace(t, "db", 500_000)
	mem := tr.MemBytes()
	if mem == 0 {
		t.Error("trace MemBytes = 0, want summary footprint")
	}
	tr.Prime(prog)
	if got := tr.MemBytes(); got != mem {
		t.Errorf("MemBytes after Prime = %d, want unchanged %d", got, mem)
	}
}

// TestMemBytesChargesAllocation: MemBytes is what the trace cache
// charges against its budget, so it must be the memory a trace keeps
// resident — whole stream segments and table capacity, not the bytes
// in use. The live heap a recording leaves behind must match it to
// within one operand segment.
func TestMemBytesChargesAllocation(t *testing.T) {
	tr, _, live := measuredRecording(t, "compress")
	const segBytes = int64(unsafe.Sizeof(operandSeg{}))
	mem := int64(tr.MemBytes())
	if d := live - mem; d > segBytes || d < -segBytes {
		t.Errorf("MemBytes = %d, live heap after recording = %d: off by %d, want within one segment (%d)", mem, live, d, segBytes)
	}
	runtime.KeepAlive(tr)
}

// TestRecordDoesNotCopyOpStream: recording grows the op stream a
// segment at a time and never copies it, so a full recording with no
// size hint allocates little beyond what the trace keeps. A doubling
// stream allocates about twice its final size, and more when the
// final arrays are left part empty.
func TestRecordDoesNotCopyOpStream(t *testing.T) {
	tr, allocated, _ := measuredRecording(t, "db")
	mem := int64(tr.MemBytes())
	if allocated*100 > mem*115 {
		t.Errorf("recording allocated %d bytes for a %d-byte trace (%.2fx), want <= 1.15x",
			allocated, mem, float64(allocated)/float64(mem))
	}
}

// TestSummaryBudgetValues pins the documented recording bound: a
// summary above 576 MiB fails Finish and its run executes directly.
func TestSummaryBudgetValues(t *testing.T) {
	if summaryMaxMemBytes != 576<<20 {
		t.Errorf("summaryMaxMemBytes = %d, want %d (576 MiB; update the docs with it)", summaryMaxMemBytes, 576<<20)
	}
}

// TestDirectRecorderInvalid: an unencodable method entry (a first
// block spanning more than 64 I-lines) must poison the recording so
// Finish fails with ErrMalformed.
func TestDirectRecorderInvalid(t *testing.T) {
	spec, _ := workload.ByName("db")
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := NewSummaryRecorder(prog, 0)
	r.RecordEnter(0, 0, 0, false)
	if _, err := r.Finish(true); !errors.Is(err, ErrMalformed) {
		t.Errorf("Finish on an unencodable stream: err = %v, want ErrMalformed", err)
	}
}
