package vm

import (
	"fmt"

	"acedo/internal/program"
)

// Recorder observes the engine's architectural event stream during a
// recording run (record-once / replay-many; see internal/rtrace). The
// engine reports every event that touches the machine model, in
// execution order: method entries and intra-method block entries carry
// the block's I-TLB and L1I per-line miss masks (bit i = line
// FirstLine+64i missed; ok is false when the block spans more than 64
// lines and the masks cannot represent it), data accesses carry the
// D-TLB outcome, conditional branches carry the predictor's verdict,
// and retire batches carry their length. Those fixed-configuration
// outcomes are scheme-invariant, so a replayer can re-simulate any
// adaptation scheme from the stream without re-running the fixed
// hardware or the register file.
//
// A recorder must not call back into the engine, the machine, or the
// AOS.
//
// RecordBody is the batched form the fast path uses: one call per
// block body carrying the body's data accesses (packed with BodyData),
// its retire total, and the terminating conditional branch's verdict
// (BranchNone when the body ended without one). It is exactly
// equivalent to the per-event calls in stream order — data accesses,
// then the batch, then the branch — and exists so a recorder can
// process a whole body without per-event interface-call overhead.
type Recorder interface {
	RecordEnter(id program.MethodID, tlbMask, missMask uint64, ok bool)
	RecordBlock(idx int, tlbMask, missMask uint64, ok bool)
	RecordBatch(n uint64)
	RecordData(wordAddr uint64, write, tlbMiss bool)
	RecordBranch(correct bool)
	RecordBody(data []uint64, n uint64, branch int8)
	RecordExit()
	RecordHalt()
}

// RecordBody branch verdicts.
const (
	// BranchNone marks a body with no terminating conditional branch
	// (unconditional jump, fall-through, call/ret/halt, budget cut,
	// or fault).
	BranchNone int8 = iota
	// BranchCorrect marks a correctly predicted terminating branch.
	BranchCorrect
	// BranchWrong marks a mispredicted terminating branch.
	BranchWrong
)

// BodyData packs one data access for RecordBody: the word address,
// the D-TLB outcome, and the write bit.
func BodyData(wordAddr uint64, write, tlbMiss bool) uint64 {
	d := wordAddr << 2
	if tlbMiss {
		d |= 2
	}
	if write {
		d |= 1
	}
	return d
}

// SetRecorder installs (or, with nil, removes) an architectural-stream
// recorder. Recording does not perturb the simulation: the engine
// issues the identical machine calls, merely observing their outcomes.
//
// It must be called on a fresh engine — immediately after NewEngine,
// before any Run. The entry method's construction-time push executed
// before the recorder existed, so SetRecorder reports it with the fetch
// outcomes NewEngine kept.
func (e *Engine) SetRecorder(r Recorder) error {
	if r == nil {
		e.rec = nil
		return nil
	}
	if e.depth != 1 || e.frames[0].idx != 0 || e.frames[0].block.Index != 0 ||
		e.mach.Instructions() != 0 {
		return fmt.Errorf("vm: recorder must be installed on a fresh engine")
	}
	e.rec = r
	r.RecordEnter(e.frames[0].m.ID, e.entryTLB, e.entryMiss, e.entryOK)
	return nil
}

// ReplayMethodEnter drives the AOS method-entry event from a trace
// replayer, exactly as the engine's frame push would (promotion check,
// hotspot span tracking, entry hooks with their overhead charges).
func (a *AOS) ReplayMethodEnter(id program.MethodID) { a.methodEnter(id) }

// ReplayMethodExit drives the AOS method-exit event from a trace
// replayer with the invocation's inclusive instruction count.
func (a *AOS) ReplayMethodExit(id program.MethodID, inclusive uint64) {
	a.methodExit(id, inclusive)
}

// ReplayBatchPoll settles the sampling profiler for a replayed retire
// batch of n instructions ending at instruction count now, crediting
// each due sample delivery to every method on the replayer's frame
// stack (outermost first) — the exact settlement the engine performs
// after IssueBatch, fault-injector consultations included.
func (a *AOS) ReplayBatchPoll(now, n uint64, stack []program.MethodID) {
	if a.params.SampleInterval == 0 || now < a.nextSample {
		return
	}
	for t := a.sampleDueN(now, n); t > 0; t-- {
		for _, id := range stack {
			a.creditSample(id)
		}
	}
}
