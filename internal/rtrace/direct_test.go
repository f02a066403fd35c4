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
	return tr, int64(after.TotalAlloc - before.TotalAlloc), int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// requireSegments fails unless s spans at least three op segments with
// a segment boundary inside a straight-line run of foldable ops, so a
// differential test using it crosses segment boundaries both inside
// fused runs and in listener replays.
func requireSegments(t *testing.T, label string, s *summary) {
	t.Helper()
	if len(s.segs) < 3 {
		t.Fatalf("%s: %d ops in %d segments, want at least 3 segments", label, s.n, len(s.segs))
	}
	for k := 1; k < len(s.segs); k++ {
		last := s.segs[k-1].ops[segOps-1]
		first := s.segs[k].ops[0]
		if last.w&opBoundaryMask == 0 && first.w&opBoundaryMask == 0 {
			return
		}
	}
	t.Fatalf("%s: no segment boundary falls inside a fused run", label)
}

// blockLog folds every block-listener call into an order-sensitive
// hash, so two runs fired the listener identically exactly when their
// counts and hashes match.
type blockLog struct {
	n, h uint64
}

func (l *blockLog) listen(pc uint64, instrs int) {
	l.n++
	l.h = (l.h^pc)*1099511628211 ^ uint64(instrs)
}

// TestReplayMatchesRecording is the replay engine's differential gate,
// with direct execution as the oracle: across every suite workload,
// complete and truncated, a trace replayed into a fresh machine must
// leave it bit-identical to the recording run's own machine — snapshot
// counters, L1D/L2 stats and LRU clocks, every set's content, and the
// timing breakdown — both on the fused path and with a block listener,
// which must also fire exactly as the recording run's did.
func TestReplayMatchesRecording(t *testing.T) {
	for _, spec := range workload.Suite() {
		for _, budget := range []uint64{0, 2_000_000} {
			label := spec.Name
			if budget != 0 {
				label += "/truncated"
			}
			prog, eng, mach := benchEngine(t, spec.Name)
			var direct blockLog
			eng.SetBlockListener(direct.listen)
			tr := recordDirect(t, prog, eng, budget)
			if tr.Truncated() != (budget != 0) {
				t.Errorf("%s: truncated = %v", label, tr.Truncated())
			}
			requireSegments(t, label, tr.summaryFor(prog))
			want := machineState(mach)

			fused := freshEnv(t, prog)
			if err := tr.Replay(fused); err != nil {
				t.Fatalf("%s: fused replay: %v", label, err)
			}
			checkSameState(t, label+"/fused", want, machineState(fused.Mach))

			var replayed blockLog
			listened := freshEnv(t, prog)
			listened.BlockListener = replayed.listen
			if err := tr.Replay(listened); err != nil {
				t.Fatalf("%s: listener replay: %v", label, err)
			}
			checkSameState(t, label+"/listener", want, machineState(listened.Mach))
			if direct.n == 0 || replayed != direct {
				t.Errorf("%s: listener fired %d times (hash %x), recording fired %d (hash %x)",
					label, replayed.n, replayed.h, direct.n, direct.h)
			}
		}
	}
}

// checkSameSummary fails unless two summaries are op-identical: the
// same op and pc streams, side tables, and program fingerprint.
func checkSameSummary(t *testing.T, label string, want, got *summary) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: missing summary (want %v, got %v)", label, want != nil, got != nil)
	}
	if got.n != want.n || len(got.segs) != len(want.segs) {
		t.Fatalf("%s: %d ops in %d segments, want %d in %d", label, got.n, len(got.segs), want.n, len(want.segs))
	}
	for si := range want.segs {
		n := min(segOps, want.n-si<<segShift)
		w, g := want.segs[si], got.segs[si]
		for j := 0; j < n; j++ {
			if w.ops[j] != g.ops[j] || w.pcs[j] != g.pcs[j] {
				t.Fatalf("%s: op %d differs: got %+v pc %#x, want %+v pc %#x",
					label, si<<segShift+j, g.ops[j], g.pcs[j], w.ops[j], w.pcs[j])
			}
		}
	}
	if !reflect.DeepEqual(got.ext, want.ext) {
		t.Errorf("%s: ext table differs (%d vs %d records)", label, len(got.ext), len(want.ext))
	}
	if !reflect.DeepEqual(got.data, want.data) {
		t.Errorf("%s: data table differs (%d vs %d accesses)", label, len(got.data), len(want.data))
	}
	if !reflect.DeepEqual(got.foot, want.foot) {
		t.Errorf("%s: footprint table differs (%d vs %d lines)", label, len(got.foot), len(want.foot))
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
			eng.SetBlockListener(log.listen)
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
			eng.SetBlockListener(direct.listen)
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
			listened.BlockListener = replayed.listen
			if err := tr.Replay(listened); err != nil {
				t.Fatalf("listener replay: %v", err)
			}
			checkSameState(t, "listener", want, machineState(listened.Mach))
			if direct.n == 0 || replayed != direct {
				t.Errorf("listener fired %d times (hash %x), oracle fired %d (hash %x)",
					replayed.n, replayed.h, direct.n, direct.h)
			}
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
// resident — whole op segments and side-table capacity, not the bytes
// in use. The live heap a recording leaves behind must match it to
// within one segment.
func TestMemBytesChargesAllocation(t *testing.T) {
	tr, _, live := measuredRecording(t, "compress")
	const segBytes = int64(unsafe.Sizeof(opSeg{}))
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
