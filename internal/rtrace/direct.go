// The recorder: SummaryRecorder folds the engine's event callbacks
// straight into a sumBuilder, so a recording run ends with the packed
// summarized op stream (summary.go) that every replay walks.
package rtrace

import (
	"fmt"
	"unsafe"

	"acedo/internal/program"
	"acedo/internal/vm"
)

// summaryMaxMemBytes bounds a recording's resident summary: a
// recording whose op stream and side tables outgrow it fails Finish,
// and its run executes directly instead of being cached for replay.
const summaryMaxMemBytes = 576 << 20

// summaryMemBytes is the summary's resident size: the bytes allocated
// for it, not the bytes in use — every stream segment in full, and the
// capacity of the run, shape, ext and data tables.
func summaryMemBytes(s *summary) int {
	const (
		shapeSegBytes = int(unsafe.Sizeof(shapeSeg{}))
		opndSegBytes  = int(unsafe.Sizeof(operandSeg{}))
		runBytes      = int(unsafe.Sizeof(sumRun{}))
		shapeBytes    = int(unsafe.Sizeof(opShape{}))
		extBytes      = int(unsafe.Sizeof(sumExt{}))
	)
	return len(s.shapeSegs)*shapeSegBytes + len(s.opndSegs)*opndSegBytes +
		cap(s.runs)*runBytes + cap(s.shapes)*shapeBytes +
		cap(s.ext)*extBytes + cap(s.data)*8
}

// MemBytes reports the trace's resident memory: its summary's shape
// and operand streams, runs, shape table and side tables — the number
// cache budgets and telemetry charge.
func (t *Trace) MemBytes() int { return summaryMemBytes(t.sum) }

// Prime is a no-op kept for callers that prepare cached traces: a
// trace's summary is complete from Finish, so MemBytes already
// reflects its full replay footprint.
func (t *Trace) Prime(prog *program.Program) {}

// SummaryRecorder implements vm.Recorder by feeding the engine's
// event stream straight into a sumBuilder, so Finish yields a Trace
// whose summary already exists. Event validation errors cannot occur
// on engine-driven streams (the engine only reports in-range methods
// and blocks), but are still surfaced through Finish for hand-driven
// use.
type SummaryRecorder struct {
	b      sumBuilder
	events uint64
	err    error // first validation failure; poisons the recording
}

// NewSummaryRecorder returns an empty recorder ready to install on an
// engine running prog. instrHint is unused: the streams grow a
// fixed-size segment at a time and never copy, so no recording needs
// its length guessed up front.
func NewSummaryRecorder(prog *program.Program, instrHint uint64) *SummaryRecorder {
	r := &SummaryRecorder{}
	r.b.init(prog)
	return r
}

// errWideBlock rejects a block the fetch masks cannot describe.
var errWideBlock = fmt.Errorf("%w: basic block spans more than 64 I-lines", ErrMalformed)

// fail poisons the recording; Finish reports the first error. The
// builder stops advancing so later events cannot corrupt its frame
// tracking.
func (r *SummaryRecorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// RecordEnter records a method entry and its first block's fetch
// outcomes (vm.Recorder).
func (r *SummaryRecorder) RecordEnter(id program.MethodID, tlbMask, missMask uint64, ok bool) {
	if r.err != nil {
		return
	}
	if !ok {
		r.fail(errWideBlock)
		return
	}
	r.events++
	if err := r.b.enter(uint64(id), tlbMask, missMask); err != nil {
		r.fail(err)
	}
}

// RecordBlock records an intra-method block entry and its fetch
// outcomes (vm.Recorder).
func (r *SummaryRecorder) RecordBlock(idx int, tlbMask, missMask uint64, ok bool) {
	if r.err != nil {
		return
	}
	if !ok {
		r.fail(errWideBlock)
		return
	}
	r.events++
	if err := r.b.block(uint64(idx), tlbMask, missMask); err != nil {
		r.fail(err)
	}
}

// RecordBatch records a retire batch of n instructions (vm.Recorder).
func (r *SummaryRecorder) RecordBatch(n uint64) {
	if r.err != nil {
		return
	}
	r.events++
	r.b.addBatch(n)
}

// RecordData records one data access and its D-TLB outcome
// (vm.Recorder).
func (r *SummaryRecorder) RecordData(wordAddr uint64, write, tlbMiss bool) {
	if r.err != nil {
		return
	}
	r.events++
	var w uint64
	if write {
		w = 1
	}
	r.b.body = append(r.b.body, wordAddr<<1|w)
	if tlbMiss {
		r.b.open.dtlb++
	}
}

// RecordBranch records a conditional branch's predictor verdict
// (vm.Recorder).
func (r *SummaryRecorder) RecordBranch(correct bool) {
	if r.err != nil {
		return
	}
	r.events++
	if !correct {
		r.b.open.brWrong++
	}
}

// RecordBody records one fast-path block body in a single call
// (vm.Recorder): the packed data accesses, the retire batch, and the
// terminating branch verdict, in stream order.
func (r *SummaryRecorder) RecordBody(data []uint64, n uint64, branch int8) {
	if r.err != nil {
		return
	}
	r.events += uint64(len(data)) + 1
	b := &r.b
	for _, d := range data {
		// vm.BodyData packing addr<<2|miss<<1|write → body packing
		// addr<<1|write, counting the D-TLB miss bit.
		b.body = append(b.body, d>>2<<1|d&1)
		b.open.dtlb += uint32(d>>1) & 1
	}
	b.addBatch(n)
	if branch != vm.BranchNone {
		r.events++
		if branch == vm.BranchWrong {
			b.open.brWrong++
		}
	}
}

// RecordExit records a method return (vm.Recorder).
func (r *SummaryRecorder) RecordExit() {
	if r.err != nil {
		return
	}
	r.events++
	if err := r.b.exit(); err != nil {
		r.fail(err)
	}
}

// RecordHalt records an explicit halt (vm.Recorder).
func (r *SummaryRecorder) RecordHalt() {
	if r.err != nil {
		return
	}
	r.events++
	r.b.halt()
}

// Finish seals the recording into an immutable Trace. halted reports
// whether the program ran to completion (vm.Engine.Halted); a
// non-halted recording is marked truncated. Finish fails — with an
// error wrapping ErrMalformed — when the stream hit a case the op
// stream cannot represent (including more than maxShapes distinct op
// shapes), and also when the summary outgrew summaryMaxMemBytes;
// either way the run must not be replayed.
func (r *SummaryRecorder) Finish(halted bool) (*Trace, error) {
	if r.err != nil {
		return nil, fmt.Errorf("rtrace: recording unusable: %w", r.err)
	}
	r.b.end(halted)
	s, err := r.b.s, r.b.err
	r.b = sumBuilder{}
	if err != nil {
		return nil, fmt.Errorf("rtrace: recording unusable: %w", err)
	}
	if mem := summaryMemBytes(s); mem > summaryMaxMemBytes {
		return nil, fmt.Errorf("rtrace: recording unusable: summary needs %d bytes (limit %d)", mem, summaryMaxMemBytes)
	}
	return &Trace{sum: s, events: r.events, truncated: !halted}, nil
}
