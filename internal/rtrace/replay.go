package rtrace

import (
	"fmt"

	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
)

// Env is the live simulation a trace is replayed into: a fresh machine
// (with the scheme's managers already wired to it), the scheme's AOS,
// and the run's composed block listener (BBV accumulator and/or
// telemetry sampler), exactly as the engine would have received them.
type Env struct {
	Prog *program.Program
	Mach *machine.Machine
	AOS  *vm.AOS
	// BlockListener, when non-nil, observes every block entry as
	// vm.Engine.SetBlockListener's does; entries below its Due may
	// reach it folded, through Accumulate.
	BlockListener vm.BlockListener
}

// rframe mirrors the engine's frame stack: replay needs each in-flight
// method's identity (for sample crediting and exit events) and its
// entry instruction count (for inclusive sizes).
type rframe struct {
	m     *program.Method
	entry uint64
}

// Replay drives the environment through the recorded architectural
// stream, reproducing a direct run of the same scheme bit-for-bit:
// machine calls happen in the recorded order at identical instruction
// counts, so cache/meter/timing state, sampler polls, fault-injector
// consultations, promotions, hook firings, and manager decisions all
// land exactly as they would under direct execution.
//
// Hotspot-style hooks that charge instrumentation overhead via the
// AOS are reproduced too — the overhead instructions issue at the same
// boundaries as in a direct run. The one case replay cannot reproduce
// is a truncated recording (instruction budget) under an
// overhead-charging scheme: the direct run's budget counts the
// overhead, so it stops earlier in program terms than the recorded
// stream. Truncated traces therefore verify at every method boundary
// that the machine's instruction count still equals the replayed batch
// total, and return ErrDiverged on the first overhead charge. The
// converse case — a truncated recording made under such a scheme,
// which stops early in program terms — passes that check, so the
// experiment layer never keeps one.
//
// A trace replays only against the program it was recorded from (its
// block geometry is resolved at record time); any other program fails
// with an error wrapping ErrMalformed.
func (t *Trace) Replay(env Env) error {
	s := t.summaryFor(env.Prog)
	if s == nil {
		return fmt.Errorf("%w: trace was recorded against a different program", ErrMalformed)
	}
	return newSumWalker(t, s, env).walk()
}
