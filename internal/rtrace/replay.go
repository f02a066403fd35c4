package rtrace

import (
	"encoding/binary"
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
	// BlockListener, when non-nil, observes every block entry —
	// identical to vm.Engine.SetBlockListener.
	BlockListener func(pc uint64, instrs int)
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
// total, and return ErrDiverged on the first overhead charge.
//
// Replay runs the summarized-block engine (summary.go): the byte
// stream is decoded once per trace into a pre-aggregated op stream,
// and block instances whose data footprints are resident in the live
// L1D apply as single bulk updates. The result is bit-identical to
// ReplayExact — the retained byte-decoding oracle — which Replay
// falls back to when the trace cannot be summarized (hand-built
// traces, oversized recordings, or a program mismatch).
func (t *Trace) Replay(env Env) error {
	s := t.summaryFor(env.Prog)
	if s == nil {
		return t.ReplayExact(env)
	}
	if s.err != nil {
		return s.err
	}
	w := newSumWalker(t, s, env)
	_, err := w.walk(0, s.n, true)
	return err
}

// ReplayExact is the reference byte-decoding replay loop: it decodes
// and applies every recorded event one at a time. Replay's summarized
// engine is differentially tested against it; the two produce
// bit-identical machine, AOS, and listener effects on every trace
// they both accept.
func (t *Trace) ReplayExact(env Env) error {
	mach, aos, prog := env.Mach, env.AOS, env.Prog
	listener := env.BlockListener
	sampling := aos.Params().SampleInterval != 0

	frames := make([]rframe, 0, 64)
	ids := make([]program.MethodID, 0, 64)
	var cur *program.Method

	start := mach.Instructions()
	var batchSum uint64
	check := t.truncated
	var prevAddr uint64

	enterBlock := func(b *program.Block, tlbMask, missMask uint64) {
		mach.ReplayFetchLines(b.FirstLine, b.LastLine, tlbMask, missMask)
		if listener != nil {
			listener(b.PC, len(b.Instrs))
		}
	}

	// The trace's first Enter event is the engine's construction-time
	// entry push, which ran before the run wiring installed the block
	// listener — so replay performs its machine effects but does not
	// fire the listener, exactly like direct execution.
	firstEnter := true
	enterMethod := func(id program.MethodID, tlbMask, missMask uint64) {
		m := prog.Method(id)
		frames = append(frames, rframe{m: m, entry: mach.Instructions()})
		ids = append(ids, id)
		cur = m
		b := m.Blocks[0]
		mach.ReplayFetchLines(b.FirstLine, b.LastLine, tlbMask, missMask)
		if listener != nil && !firstEnter {
			listener(b.PC, len(b.Instrs))
		}
		firstEnter = false
		aos.ReplayMethodEnter(id)
	}

	for ci := 0; ci < len(t.chunks); ci++ {
		buf := t.chunks[ci]
		pos := 0
		for pos < len(buf) {
			opByte := buf[pos]
			pos++
			kind := opByte & 7
			pay := uint64(opByte >> 3)

			// Inline-or-uvarint operand for the kinds that carry one.
			switch kind {
			case kBlock, kBatch, kEnter:
				if pay == payloadEscape {
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad operand at chunk %d pos %d", ErrMalformed, ci, pos)
					}
					pos += n
					pay = v
				}
			}

			switch kind {
			case kBatch:
				mach.IssueBatch(pay)
				batchSum += pay
				if sampling {
					aos.ReplayBatchPoll(mach.Instructions(), pay, ids)
				}

			case kData:
				// Payload: bit 0 = write, bits 1-4 = zigzag delta.
				write := pay&1 != 0
				delta := pay >> 1
				if delta == 15 {
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad data delta at chunk %d pos %d", ErrMalformed, ci, pos)
					}
					pos += n
					delta = v
				}
				addr := uint64(int64(prevAddr) + unzigzag(delta))
				prevAddr = addr
				mach.ReplayData(addr, write, false)

			case kBranch:
				mach.ReplayBranch(pay&1 != 0)

			case kBlock:
				if cur == nil || pay >= uint64(len(cur.Blocks)) {
					return fmt.Errorf("%w: block %d out of range", ErrMalformed, pay)
				}
				enterBlock(cur.Blocks[pay], 0, 0)

			case kEnter:
				if pay >= uint64(prog.NumMethods()) {
					return fmt.Errorf("%w: method %d out of range", ErrMalformed, pay)
				}
				enterMethod(program.MethodID(pay), 0, 0)
				if check && mach.Instructions() != start+batchSum {
					return ErrDiverged
				}

			case kExit:
				if len(frames) == 0 {
					return fmt.Errorf("%w: exit with empty frame stack", ErrMalformed)
				}
				f := frames[len(frames)-1]
				frames = frames[:len(frames)-1]
				ids = ids[:len(ids)-1]
				aos.ReplayMethodExit(f.m.ID, mach.Instructions()-f.entry)
				if len(frames) > 0 {
					cur = frames[len(frames)-1].m
				} else {
					cur = nil
				}
				if check && mach.Instructions() != start+batchSum {
					return ErrDiverged
				}

			case kHalt:
				// Unwind all in-flight frames innermost-first at one
				// instruction count, like vm.Engine's halt path.
				now := mach.Instructions()
				for i := len(frames) - 1; i >= 0; i-- {
					aos.ReplayMethodExit(frames[i].m.ID, now-frames[i].entry)
				}
				frames = frames[:0]
				ids = ids[:0]
				cur = nil
				if check && mach.Instructions() != start+batchSum {
					return ErrDiverged
				}

			case kExt:
				switch pay {
				case extEndHalted, extEndBudget:
					return nil

				case extBlockMasks, extEnterMasks:
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad masked-entry operand", ErrMalformed)
					}
					pos += n
					tlbMask, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad I-TLB mask", ErrMalformed)
					}
					pos += n
					missMask, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad L1I mask", ErrMalformed)
					}
					pos += n
					if pay == extBlockMasks {
						if cur == nil || v >= uint64(len(cur.Blocks)) {
							return fmt.Errorf("%w: block %d out of range", ErrMalformed, v)
						}
						enterBlock(cur.Blocks[v], tlbMask, missMask)
						break
					}
					if v >= uint64(prog.NumMethods()) {
						return fmt.Errorf("%w: method %d out of range", ErrMalformed, v)
					}
					enterMethod(program.MethodID(v), tlbMask, missMask)
					if check && mach.Instructions() != start+batchSum {
						return ErrDiverged
					}

				case extDataTLB:
					w, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad data flags", ErrMalformed)
					}
					pos += n
					delta, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fmt.Errorf("%w: bad data delta", ErrMalformed)
					}
					pos += n
					addr := uint64(int64(prevAddr) + unzigzag(delta))
					prevAddr = addr
					mach.ReplayData(addr, w&1 != 0, true)

				default:
					return fmt.Errorf("%w: unknown extended event %d", ErrMalformed, pay)
				}
			}
		}
	}
	return fmt.Errorf("%w: missing end marker", ErrMalformed)
}
