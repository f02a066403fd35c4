package rtrace

import (
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
// it on.
func benchEngine(t *testing.T, bench string) (*program.Program, *vm.Engine) {
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
	return prog, eng
}

// recordDirect runs eng under a fresh direct recorder (with no size
// hint, like every production caller) and seals the trace.
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

// directTrace is recordedTrace with the direct summary recorder
// installed instead of the byte encoder.
func directTrace(t *testing.T, bench string, budget uint64) (*program.Program, *Trace) {
	t.Helper()
	prog, eng := benchEngine(t, bench)
	return prog, recordDirect(t, prog, eng, budget)
}

// measuredRecording records bench to completion and reports the bytes
// the recording allocated and the live heap it left behind, with the
// program and engine built beforehand so neither counts.
func measuredRecording(t *testing.T, bench string) (tr *Trace, allocated, live int64) {
	t.Helper()
	prog, eng := benchEngine(t, bench)
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
	for i := segOps; i < s.n; i += segOps {
		before, k := s.seg(i - 1)
		after, _ := s.seg(i)
		if before.ops[k].w&opBoundaryMask == 0 && after.ops[0].w&opBoundaryMask == 0 {
			return
		}
	}
	t.Fatalf("%s: no segment boundary falls inside a fused run", label)
}

// checkSameSummary asserts two summaries are op-for-op identical:
// every packed op word and datum, the pc stream, and the ext, data,
// and footprint side tables.
func checkSameSummary(t *testing.T, label string, want, got *summary) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: nil summary (want %v, got %v)", label, want != nil, got != nil)
	}
	if want.err != nil || got.err != nil {
		t.Fatalf("%s: summary errors: want %v, got %v", label, want.err, got.err)
	}
	if want.n != got.n || len(want.segs) != len(got.segs) {
		t.Fatalf("%s: op count %d in %d segments, want %d in %d", label, got.n, len(got.segs), want.n, len(want.segs))
	}
	for i := 0; i < want.n; i++ {
		wg, k := want.seg(i)
		gg, _ := got.seg(i)
		if wg.ops[k] != gg.ops[k] {
			t.Fatalf("%s: op %d = %+v, want %+v", label, i, gg.ops[k], wg.ops[k])
		}
		if wg.pcs[k] != gg.pcs[k] {
			t.Fatalf("%s: pc %d = %#x, want %#x", label, i, gg.pcs[k], wg.pcs[k])
		}
	}
	if !reflect.DeepEqual(want.ext, got.ext) {
		t.Errorf("%s: ext tables differ (%d vs %d records)", label, len(want.ext), len(got.ext))
	}
	if !reflect.DeepEqual(want.data, got.data) {
		t.Errorf("%s: data tables differ (%d vs %d accesses)", label, len(want.data), len(got.data))
	}
	if !reflect.DeepEqual(want.foot, got.foot) {
		t.Errorf("%s: footprint tables differ (%d vs %d lines)", label, len(want.foot), len(got.foot))
	}
	if want.retired != got.retired {
		t.Errorf("%s: retired total %d, want %d", label, got.retired, want.retired)
	}
	if want.progSig != got.progSig {
		t.Errorf("%s: progSig %x, want %x", label, got.progSig, want.progSig)
	}
}

// TestDirectSummaryOpIdentical is the tentpole's differential gate:
// across every suite workload, complete and truncated, the summary the
// direct recorder builds at record time must be op-for-op identical to
// the one summarize() decodes from the byte recorder's stream of the
// same run — same packed words, same ext escapes, same side tables,
// same event count and truncation flag.
func TestDirectSummaryOpIdentical(t *testing.T) {
	budgets := []uint64{0, 2_000_000}
	for _, spec := range workload.Suite() {
		for _, budget := range budgets {
			label := spec.Name
			if budget != 0 {
				label += "/truncated"
			}
			prog, byteTr := recordedTrace(t, spec.Name, budget)
			_, directTr := directTrace(t, spec.Name, budget)

			if byteTr.Truncated() != directTr.Truncated() {
				t.Errorf("%s: truncated %v, want %v", label, directTr.Truncated(), byteTr.Truncated())
			}
			if byteTr.Events() != directTr.Events() {
				t.Errorf("%s: events %d, want %d", label, directTr.Events(), byteTr.Events())
			}
			if !directTr.DirectBuilt() || byteTr.DirectBuilt() {
				t.Errorf("%s: DirectBuilt flags wrong", label)
			}
			requireSegments(t, label, directTr.summaryFor(prog))
			checkSameSummary(t, label, byteTr.summaryFor(prog), directTr.summaryFor(prog))
		}
	}
}

// TestDirectReplayMatchesByteOracle: replaying a direct-built trace —
// serial, span-parallel, and with a block listener — must leave the
// machine bit-identical to the byte oracle's ReplayExact of the same
// run.
func TestDirectReplayMatchesByteOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"complete", 0},
		{"truncated", 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, byteTr := recordedTrace(t, "jess", tc.budget)
			_, directTr := directTrace(t, "jess", tc.budget)
			requireSegments(t, tc.name, directTr.summaryFor(prog))

			exact := freshEnv(t, prog)
			if err := byteTr.ReplayExact(exact); err != nil {
				t.Fatalf("ReplayExact: %v", err)
			}
			want := machineState(exact.Mach)

			serial := freshEnv(t, prog)
			if err := directTr.Replay(serial); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			checkSameState(t, "direct-serial", want, machineState(serial.Mach))

			par := freshEnv(t, prog)
			if err := directTr.ReplayParallel(par, 4); err != nil {
				t.Fatalf("ReplayParallel: %v", err)
			}
			checkSameState(t, "direct-parallel", want, machineState(par.Mach))

			nb, nd := 0, 0
			lb := freshEnv(t, prog)
			lb.BlockListener = func(uint64, int) { nb++ }
			if err := byteTr.Replay(lb); err != nil {
				t.Fatal(err)
			}
			ld := freshEnv(t, prog)
			ld.BlockListener = func(uint64, int) { nd++ }
			if err := directTr.Replay(ld); err != nil {
				t.Fatal(err)
			}
			if nb == 0 || nb != nd {
				t.Errorf("listener fired %d times on direct trace, want %d (non-zero)", nd, nb)
			}
			checkSameState(t, "direct-listener", machineState(lb.Mach), machineState(ld.Mach))
		})
	}
}

// TestDirectTraceMemBytes: a direct-built trace has no encoded bytes,
// so MemBytes (what cache budgets charge) must count the summary's
// arrays, and a byte trace's MemBytes must grow once Prime decodes its
// summary.
func TestDirectTraceMemBytes(t *testing.T) {
	prog, directTr := directTrace(t, "db", 500_000)
	if directTr.Size() != 0 {
		t.Errorf("direct trace Size = %d, want 0", directTr.Size())
	}
	if directTr.MemBytes() == 0 {
		t.Error("direct trace MemBytes = 0, want summary footprint")
	}

	_, byteTr := recordedTrace(t, "db", 500_000)
	encoded := byteTr.MemBytes()
	if encoded != byteTr.Size() {
		t.Errorf("unprimed byte trace MemBytes = %d, want Size %d", encoded, byteTr.Size())
	}
	byteTr.Prime(prog)
	if primed := byteTr.MemBytes(); primed <= encoded {
		t.Errorf("primed byte trace MemBytes = %d, want > %d", primed, encoded)
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

// TestSummaryBudgetValues pins the documented summarization bounds:
// byte traces above 96 MiB keep the byte-replay path, and the direct
// recorder's memory bound is the matching 6× decoded-size limit.
func TestSummaryBudgetValues(t *testing.T) {
	if summaryMaxTraceBytes != 96<<20 {
		t.Errorf("summaryMaxTraceBytes = %d, want %d (96 MiB; update the docs with it)", summaryMaxTraceBytes, 96<<20)
	}
	if summaryMaxMemBytes != 6*summaryMaxTraceBytes {
		t.Errorf("summaryMaxMemBytes = %d, want 6x summaryMaxTraceBytes", summaryMaxMemBytes)
	}
}

// TestDirectRecorderInvalid: an unencodable event (a block spanning
// more than 64 I-lines) must poison the recording so Finish fails,
// exactly like the byte recorder.
func TestDirectRecorderInvalid(t *testing.T) {
	spec, _ := workload.ByName("db")
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := NewSummaryRecorder(prog, 0)
	r.RecordEnter(0, 0, 0, false)
	if _, err := r.Finish(true); err == nil {
		t.Error("Finish succeeded on an unencodable stream")
	}
}
