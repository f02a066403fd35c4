// Direct summarization: a second vm.Recorder that builds the packed
// summarized op stream (summary.go) straight from the engine's event
// callbacks, skipping both the delta/varint byte encoding and the
// decode-once summarization pass. The byte recorder survives as the
// oracle format — record-check and the fuzz differential prove the
// direct-built summary is op-for-op identical to summarize-after-
// decode — and the shared sumBuilder state machine makes the two
// construction paths structurally incapable of drifting apart.
package rtrace

import (
	"fmt"
	"unsafe"

	"acedo/internal/cache"
	"acedo/internal/program"
	"acedo/internal/vm"
)

// Format selects which vm.Recorder implementation a recording run
// installs. It is a pure performance knob: both formats yield traces
// whose replays are byte-identical, so it deliberately stays out of
// job spec hashing (like Options.IntraParallelism).
type Format int

const (
	// FormatSummary (the default) records with SummaryRecorder,
	// building the packed summarized op stream directly at record
	// time with no byte encoding and no decode pass.
	FormatSummary Format = iota
	// FormatBytes records with the chunked delta/varint byte encoder
	// (Recorder), summarizing lazily on first replay — the original
	// path, retained as the differential oracle.
	FormatBytes
)

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatSummary:
		return "summary"
	case FormatBytes:
		return "bytes"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat parses a -traceformat flag value ("summary" or "bytes").
func ParseFormat(s string) (Format, error) {
	switch s {
	case "summary", "":
		return FormatSummary, nil
	case "bytes":
		return FormatBytes, nil
	}
	return 0, fmt.Errorf("rtrace: unknown trace format %q (want summary or bytes)", s)
}

// summaryMaxMemBytes bounds direct-built summaries the way
// summaryMaxTraceBytes bounds summarized byte traces: the decoded op
// stream costs roughly 6× the encoded bytes, so the two limits gate
// the same recordings whichever recorder captured them.
const summaryMaxMemBytes = 6 * summaryMaxTraceBytes

// summaryMemBytes is the summary's resident size: the bytes allocated
// for it, not the bytes in use — every op-stream segment in full, and
// the capacity of the ext/data/footprint side tables.
func summaryMemBytes(s *summary) int {
	const (
		segBytes  = int(unsafe.Sizeof(opSeg{}))
		extBytes  = int(unsafe.Sizeof(sumExt{}))
		footBytes = int(unsafe.Sizeof(cache.FootLine{}))
	)
	return len(s.segs)*segBytes + cap(s.ext)*extBytes +
		cap(s.data)*8 + cap(s.foot)*footBytes
}

// MemBytes reports the trace's resident memory: the encoded chunk
// bytes plus the decoded summary's op stream and side tables once
// built. Direct-built traces have no chunks, so this is the number
// cache budgets and telemetry must charge — Size() alone would be 0.
func (t *Trace) MemBytes() int {
	n := t.size
	if st := t.sumState; st != nil {
		st.mu.Lock()
		if st.built && st.sum != nil {
			n += summaryMemBytes(st.sum)
		}
		st.mu.Unlock()
	}
	return n
}

// DirectBuilt reports whether the trace was captured by
// SummaryRecorder (no byte encoding exists; ReplayExact is
// unavailable and Replay always takes the summarized path).
func (t *Trace) DirectBuilt() bool { return t.direct }

// Prime eagerly resolves the trace's summary against prog (a no-op on
// direct-built traces, whose summary exists from Finish). Callers that
// cache traces call it so MemBytes reflects the decoded footprint at
// admission time rather than after the first replay.
func (t *Trace) Prime(prog *program.Program) { t.summaryFor(prog) }

// SummaryRecorder implements vm.Recorder by feeding the engine's
// event stream straight into a sumBuilder — the identical state
// machine summarize() drives from the byte stream — so Finish yields
// a Trace whose summary already exists, op-for-op identical to what
// recording with Recorder and summarizing on first replay would have
// produced. Event validation errors cannot occur on engine-driven
// streams (the engine only reports in-range methods and blocks), but
// are still surfaced through Finish for hand-driven use.
type SummaryRecorder struct {
	b       sumBuilder
	events  uint64
	dead    bool
	invalid string
}

// NewSummaryRecorder returns an empty direct recorder ready to
// install on an engine running prog. instrHint is unused: the op
// stream grows a fixed-size segment at a time and never copies, so no
// recording needs its length guessed up front.
func NewSummaryRecorder(prog *program.Program, instrHint uint64) *SummaryRecorder {
	r := &SummaryRecorder{}
	r.b.init(prog)
	return r
}

// fail poisons the recording; Finish reports the first reason. The
// builder stops advancing so later events cannot corrupt its frame
// tracking.
func (r *SummaryRecorder) fail(reason string) {
	if !r.dead {
		r.dead = true
		r.invalid = reason
	}
}

// RecordEnter records a method entry and its first block's fetch
// outcomes (vm.Recorder).
func (r *SummaryRecorder) RecordEnter(id program.MethodID, tlbMask, missMask uint64, ok bool) {
	if r.dead {
		return
	}
	if !ok {
		r.fail("basic block spans more than 64 I-lines")
		return
	}
	r.events++
	if err := r.b.enter(uint64(id), tlbMask, missMask); err != nil {
		r.fail(err.Error())
	}
}

// RecordBlock records an intra-method block entry and its fetch
// outcomes (vm.Recorder).
func (r *SummaryRecorder) RecordBlock(idx int, tlbMask, missMask uint64, ok bool) {
	if r.dead {
		return
	}
	if !ok {
		r.fail("basic block spans more than 64 I-lines")
		return
	}
	r.events++
	if err := r.b.block(uint64(idx), tlbMask, missMask); err != nil {
		r.fail(err.Error())
	}
}

// RecordBatch records a retire batch of n instructions (vm.Recorder).
func (r *SummaryRecorder) RecordBatch(n uint64) {
	if r.dead {
		return
	}
	r.events++
	r.b.addBatch(n)
}

// RecordData records one data access and its D-TLB outcome
// (vm.Recorder).
func (r *SummaryRecorder) RecordData(wordAddr uint64, write, tlbMiss bool) {
	if r.dead {
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
	if r.dead {
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
	if r.dead {
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
	if r.dead {
		return
	}
	r.events++
	if err := r.b.exit(); err != nil {
		r.fail(err.Error())
	}
}

// RecordHalt records an explicit halt (vm.Recorder).
func (r *SummaryRecorder) RecordHalt() {
	if r.dead {
		return
	}
	r.events++
	r.b.halt()
}

// Finish seals the recording into an immutable Trace whose summary is
// already built — Replay and ReplayParallel use it directly, with no
// decode pass. halted reports whether the program ran to completion
// (vm.Engine.Halted); a non-halted recording is marked truncated.
// Finish fails when the stream hit an unencodable case or when the
// summary outgrew the memory bound the byte path enforces via
// summaryMaxTraceBytes, in which case the run must not be replayed.
func (r *SummaryRecorder) Finish(halted bool) (*Trace, error) {
	if r.dead {
		return nil, fmt.Errorf("rtrace: recording unusable: %s", r.invalid)
	}
	r.b.end(halted)
	s := r.b.s
	r.b = sumBuilder{}
	if mem := summaryMemBytes(s); mem > summaryMaxMemBytes {
		return nil, fmt.Errorf("rtrace: recording unusable: direct-built summary needs %d bytes (limit %d)", mem, summaryMaxMemBytes)
	}
	return &Trace{
		events:    r.events,
		truncated: !halted,
		direct:    true,
		sumState:  &sumState{built: true, sum: s},
	}, nil
}
