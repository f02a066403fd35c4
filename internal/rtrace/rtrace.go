// Package rtrace implements record-once / replay-many simulation: a
// recording pass captures one benchmark's architectural event stream —
// block entries with their I-side fetch outcomes, data addresses with
// their D-TLB outcomes, branch-predictor verdicts, retire-batch
// lengths, and method enter/exit boundaries — and a replay pass
// re-simulates any adaptation scheme from that trace without
// interpreting the register file.
//
// The stream is scheme-invariant because resizing the configurable
// units (L1D, L2, IQ) changes timing and energy only, never register
// values or control flow; and the fixed-configuration structures —
// I-TLB, D-TLB, L1I, branch predictor — behave identically under every
// scheme, so their per-access outcomes are recorded and replayed as
// bits instead of re-simulated. Replay therefore only simulates the
// resizable L1D and L2 (plus the shared L2 traffic the recorded L1I
// misses generate), the timing counters, the energy meters, and the
// adaptation machinery itself (AOS, sampler, managers), reproducing a
// direct run's Snapshot, DO database, and telemetry bit-for-bit.
//
// There is one trace representation and one replay engine. The
// recorder (SummaryRecorder, direct.go) folds the engine's event
// callbacks straight into a packed op stream in which each block
// instance's body events are pre-aggregated (summary.go), and Replay
// walks that stream. The oracle is direct execution itself: the
// differential tests compare a replayed machine against the recording
// run's own machine, and the replay-check gate diffs replayed suite
// snapshots against directly executed ones.
package rtrace

import "errors"

// Trace is a finished recording of one run's architectural stream.
// It is immutable and safe to replay concurrently from multiple
// goroutines (each Replay call carries its own cursor).
type Trace struct {
	sum       *summary
	events    uint64
	truncated bool
}

// Truncated reports whether the recording stopped at an instruction
// budget rather than a program halt. Truncated traces replay with a
// per-boundary instruction-count check (see Replay): a scheme that
// charges instrumentation overhead reaches the budget earlier than the
// recorded run did, so its replay diverges and must fall back.
func (t *Trace) Truncated() bool { return t.truncated }

// Events returns the number of recorded events.
func (t *Trace) Events() uint64 { return t.events }

// ErrDiverged is returned by Replay when the live adaptation machinery
// charged instructions a truncated trace cannot account for — the
// scheme's stopping point differs from the recorded run's, so the
// replay is not equivalent to direct execution and the caller must
// fall back.
var ErrDiverged = errors.New("rtrace: replayed scheme diverged from recorded stream")

// ErrMalformed is wrapped by errors for a stream the recorder cannot
// represent (Finish) or a trace that cannot drive the given program
// (Replay); callers should treat it like a divergence and fall back.
var ErrMalformed = errors.New("rtrace: malformed trace")
