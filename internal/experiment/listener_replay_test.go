package experiment

import (
	"reflect"
	"testing"

	"acedo/internal/bbv"
	"acedo/internal/cache"
	"acedo/internal/rtrace"
	"acedo/internal/telemetry"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// listenerOutcome is what one BBV or WSS run leaves behind: its
// result, the machine's L1D and L2 stats, every telemetry event in
// order (the manager's phase classifications, and with a sampler its
// interval metrics), and the phase detector with its signatures and
// final accumulator.
type listenerOutcome struct {
	res     *Result
	l1d, l2 cache.Stats
	events  []telemetry.Event
	det     bbv.Detector
}

// exactDue forces the exact walk: with Due 0 a replay calls OnBlock on
// every block entry, in order.
type exactDue struct{ vm.BlockListener }

func (exactDue) Due() uint64 { return 0 }

// How listenerRun executes.
const (
	lrDirect = iota // on the interpreter
	lrRecord        // on the interpreter, recording the trace it returns
	lrExact         // replaying the trace through the exact walk
	lrFolded        // replaying the trace as production does
)

// listenerRun runs spec under scheme on fresh run state, as mode says.
// sampled attaches a telemetry sink, which chains an interval sampler
// behind the manager; without one, only the manager reports.
func listenerRun(t *testing.T, spec workload.Spec, scheme Scheme, opt Options, sampled bool, mode int, tr *rtrace.Trace) (listenerOutcome, *rtrace.Trace) {
	t.Helper()
	var buf telemetry.Buffer
	if sampled {
		opt.Sink = &buf
	}
	st, err := newRunState(spec, scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled {
		st.bbvMgr.SetSink(&buf)
	}
	if mode == lrDirect || mode == lrRecord {
		eng, err := vm.NewEngine(st.prog, st.mach, st.aos)
		if err != nil {
			t.Fatal(err)
		}
		var rec *rtrace.SummaryRecorder
		if mode == lrRecord {
			rec = rtrace.NewSummaryRecorder(st.prog, 0)
			if err := eng.SetRecorder(rec); err != nil {
				t.Fatal(err)
			}
		}
		eng.SetBlockListener(st.listener)
		if err := runEngine(eng, spec.Name, scheme, opt); err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			if tr, err = rec.Finish(eng.Halted()); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		l := st.listener
		if mode == lrExact {
			l = exactDue{l}
		}
		env := rtrace.Env{Prog: st.prog, Mach: st.mach, AOS: st.aos, BlockListener: l}
		if err := tr.Replay(env); err != nil {
			t.Fatal(err)
		}
	}
	out := listenerOutcome{l1d: st.mach.L1D.Stats(), l2: st.mach.L2.Stats(), det: st.bbvMgr.Detector()}
	out.res = st.finish()
	out.events = buf.Events()
	return out, tr
}

// checkSameOutcome fails unless got matches want bit for bit.
func checkSameOutcome(t *testing.T, label string, want, got listenerOutcome) {
	t.Helper()
	if !sameSim(got.res, want.res) {
		t.Errorf("%s: %d instr %d cycles, want %d instr %d cycles", label,
			got.res.Instr, got.res.Cycles, want.res.Instr, want.res.Cycles)
	}
	if got.l1d != want.l1d || got.l2 != want.l2 {
		t.Errorf("%s: cache stats L1D %+v L2 %+v, want %+v %+v", label, got.l1d, got.l2, want.l1d, want.l2)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: %d telemetry events differ from the %d wanted", label, len(got.events), len(want.events))
	}
	if !reflect.DeepEqual(got.det, want.det) {
		t.Errorf("%s: detector state (signatures, accumulator) differs", label)
	}
}

// TestListenerReplayMatchesExactAndDirect is the differential gate for
// folding listener replays: on every suite workload, complete and
// truncated at 2 M instructions, the BBV and WSS schemes — each with
// and without a chained telemetry sampler — replayed from one
// recording must match both the exact walk (Due 0) and direct
// execution bit for bit: result and machine snapshot, cache stats,
// every phase and interval event in order, and the detector's
// signatures and final accumulator.
func TestListenerReplayMatchesExactAndDirect(t *testing.T) {
	opt := DefaultOptions()
	for _, spec := range workload.Suite() {
		for _, budget := range []uint64{0, 2_000_000} {
			name := spec.Name
			if budget != 0 {
				name += "/truncated"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opt := opt
				opt.MaxInstr = budget
				var tr *rtrace.Trace
				for _, scheme := range []Scheme{SchemeBBV, SchemeWSS} {
					for _, sampled := range []bool{false, true} {
						label := scheme.String()
						if sampled {
							label += "+sampler"
						}
						mode := lrDirect
						if tr == nil {
							mode = lrRecord
						}
						direct, rec := listenerRun(t, spec, scheme, opt, sampled, mode, nil)
						if tr == nil {
							tr = rec
						}
						if len(direct.events) == 0 {
							t.Fatalf("%s: no phase events; test is vacuous", label)
						}
						exact, _ := listenerRun(t, spec, scheme, opt, sampled, lrExact, tr)
						checkSameOutcome(t, label+"/exact", direct, exact)
						folded, _ := listenerRun(t, spec, scheme, opt, sampled, lrFolded, tr)
						checkSameOutcome(t, label+"/folded", direct, folded)
					}
				}
			})
		}
	}
}
