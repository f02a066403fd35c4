package rtrace

import (
	"errors"
	"testing"

	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// testProg builds the jess program hand-driven recorder tests resolve
// methods and blocks against.
func testProg(t *testing.T) *program.Program {
	t.Helper()
	spec, ok := workload.ByName("jess")
	if !ok {
		t.Fatal("no jess benchmark")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRecorderCountsAndSeals(t *testing.T) {
	r := NewSummaryRecorder(testProg(t), 0)
	r.RecordEnter(0, 1, 1, true) // cold entry: masked fetch walk
	r.RecordBody([]uint64{
		vm.BodyData(100, false, true), // D-TLB miss
		vm.BodyData(101, true, false),
	}, 5, vm.BranchCorrect)
	r.RecordBlock(1, 0, 0, true)
	r.RecordExit()
	r.RecordHalt()
	tr, err := r.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 8 {
		t.Errorf("events = %d, want 8", tr.Events())
	}
	if tr.Truncated() {
		t.Error("halted trace marked truncated")
	}
	if tr.MemBytes() == 0 {
		t.Error("MemBytes = 0, want the op stream's footprint")
	}
}

func TestTruncatedFlag(t *testing.T) {
	r := NewSummaryRecorder(testProg(t), 0)
	r.RecordBody(nil, 1, vm.BranchNone)
	tr, err := r.Finish(false)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated() {
		t.Error("budget-stopped trace not marked truncated")
	}
}

func TestOversizedBlockInvalidatesRecording(t *testing.T) {
	r := NewSummaryRecorder(testProg(t), 0)
	r.RecordEnter(0, 0, 0, true)
	r.RecordBlock(0, 0, 0, false) // spans > 64 lines: unencodable
	if _, err := r.Finish(true); !errors.Is(err, ErrMalformed) {
		t.Errorf("Finish on an unencodable recording: err = %v, want ErrMalformed", err)
	}
}

// TestFinishRejectsMalformed: call sequences no engine produces — a
// return or block entry with no frame, an unknown method or block —
// must poison the recording, and Finish must report an error wrapping
// ErrMalformed without panicking.
func TestFinishRejectsMalformed(t *testing.T) {
	prog := testProg(t)
	cases := map[string]func(r *SummaryRecorder){
		"exit underflow": func(r *SummaryRecorder) { r.RecordExit() },
		"block no frame": func(r *SummaryRecorder) { r.RecordBlock(1, 0, 0, true) },
		"method range":   func(r *SummaryRecorder) { r.RecordEnter(program.MethodID(prog.NumMethods()), 0, 0, true) },
		"block range": func(r *SummaryRecorder) {
			r.RecordEnter(0, 0, 0, true)
			r.RecordBlock(len(prog.Method(0).Blocks), 0, 0, true)
		},
		"after halt": func(r *SummaryRecorder) {
			r.RecordEnter(0, 0, 0, true)
			r.RecordHalt()
			r.RecordExit()
		},
	}
	for name, calls := range cases {
		r := NewSummaryRecorder(prog, 0)
		calls(r)
		r.RecordBody(nil, 3, vm.BranchNone) // events after the failure are ignored
		if _, err := r.Finish(true); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}
