package vm

import (
	"errors"
	"fmt"

	"acedo/internal/isa"
	"acedo/internal/machine"
	"acedo/internal/program"
)

// ErrBudget is returned by Run when the instruction budget is
// exhausted before the program halts.
var ErrBudget = errors.New("vm: instruction budget exhausted")

// ExecMode selects how the engine dispatches sealed code. Both modes
// are architecturally identical — same retired-instruction counts,
// cycles, energy, sample points, and tuning decisions — they differ
// only in host wall-clock speed. The differential determinism tests
// assert exact equality of machine snapshots and DO databases across
// modes.
type ExecMode int

const (
	// ModeOptimized (the default) executes every method through the
	// block-batched fast path: straight-line runs of pre-decoded
	// micro-ops retire with one IssueBatch call and one sampler
	// settlement per run.
	ModeOptimized ExecMode = iota

	// ModeBaseline is the instruction-at-a-time reference path, kept
	// as the differential-testing oracle for the batched path.
	ModeBaseline
)

// String names the mode.
func (m ExecMode) String() string {
	switch m {
	case ModeOptimized:
		return "optimized"
	case ModeBaseline:
		return "baseline"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

type frame struct {
	m          *program.Method
	block      *program.Block
	idx        int
	entryInstr uint64
	retReg     uint8
	regs       [isa.NumRegs]int64
}

// Stats reports the engine's execution-path mix: how many retired
// instructions went through the block-batched fast path versus the
// instruction-at-a-time path.
type Stats struct {
	// BatchedInstr counts instructions retired by the fast path.
	BatchedInstr uint64
	// SteppedInstr counts instructions retired one at a time.
	SteppedInstr uint64
	// Runs counts batches issued by the fast path (at most one per
	// block entry).
	Runs uint64
}

// Engine interprets a sealed program on a machine, firing method
// boundary events into the AOS. It is the execution service of the
// dynamic optimization system.
type Engine struct {
	prog *program.Program
	mach *machine.Machine
	aos  *AOS

	mem    []int64
	frames []frame
	depth  int
	halted bool
	mode   ExecMode

	// sampleEvery caches the profiler period; 0 disables the
	// per-instruction sampler poll entirely (runs with no AOS
	// sampling configured pay nothing for the profiler).
	sampleEvery uint64

	stats Stats

	// blockListener, when set, observes every basic-block entry
	// (the feed for the BBV accumulator hardware).
	blockListener func(pc uint64, instrs int)

	// rec, when set, observes the architectural event stream (see
	// SetRecorder in record.go): the engine hands it the outcomes the
	// machine's fetch, data and branch calls report, so recording never
	// changes what the machine simulates.
	rec Recorder

	// entryTLB, entryMiss and entryOK are the fetch outcomes of the
	// construction-time entry push, which runs before a recorder can
	// be installed; SetRecorder reports them.
	entryTLB, entryMiss uint64
	entryOK             bool

	// recData buffers the fast path's packed data accesses (BodyData)
	// between block boundaries so a whole body reaches the recorder
	// as one RecordBody call. Reused across bodies; only touched when
	// rec is set.
	recData []uint64
}

// SetBlockListener installs a basic-block entry observer. Pass nil to
// remove it. The listener models profiling hardware, so it must not
// re-enter the engine.
func (e *Engine) SetBlockListener(fn func(pc uint64, instrs int)) {
	e.blockListener = fn
}

// NewEngine constructs an engine in ModeOptimized. The program must be
// sealed.
func NewEngine(prog *program.Program, mach *machine.Machine, aos *AOS) (*Engine, error) {
	if !prog.Sealed() {
		return nil, fmt.Errorf("vm: program %q not sealed", prog.Name)
	}
	if aos == nil {
		return nil, fmt.Errorf("vm: nil AOS")
	}
	if err := aos.params.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		prog:        prog,
		mach:        mach,
		aos:         aos,
		mem:         make([]int64, prog.MemWords),
		frames:      make([]frame, aos.params.MaxCallDepth),
		sampleEvery: aos.params.SampleInterval,
	}
	e.entryTLB, e.entryMiss, e.entryOK = e.push(prog.Entry, 0)
	return e, nil
}

// SetMode switches the execution mode; the next Run dispatches under
// it.
func (e *Engine) SetMode(m ExecMode) { e.mode = m }

// Mode returns the current execution mode.
func (e *Engine) Mode() ExecMode { return e.mode }

// Stats returns the execution-path counters.
func (e *Engine) Stats() Stats { return e.stats }

// Halted reports whether the program executed OpHalt.
func (e *Engine) Halted() bool { return e.halted }

// Mem returns the data memory image (for tests asserting computation
// results).
func (e *Engine) Mem() []int64 { return e.mem }

// Depth returns the current call depth.
func (e *Engine) Depth() int { return e.depth }

// push enters method id and returns its entry block's fetch outcomes.
func (e *Engine) push(id program.MethodID, retReg uint8) (tlbMask, missMask uint64, ok bool) {
	f := &e.frames[e.depth]
	e.depth++
	f.m = e.prog.Method(id)
	f.retReg = retReg
	f.entryInstr = e.mach.Instructions()
	f.idx = 0
	f.block = f.m.Blocks[0]
	tlbMask, missMask, ok = e.mach.FetchLines(f.block.FirstLine, f.block.LastLine)
	if e.rec != nil {
		e.rec.RecordEnter(id, tlbMask, missMask, ok)
	}
	if e.blockListener != nil {
		e.blockListener(f.block.PC, len(f.block.Instrs))
	}
	e.aos.methodEnter(id)
	return tlbMask, missMask, ok
}

func (e *Engine) enterBlock(f *frame, idx int) {
	f.block = f.m.Blocks[idx]
	f.idx = 0
	tlb, miss, ok := e.mach.FetchLines(f.block.FirstLine, f.block.LastLine)
	if e.rec != nil {
		e.rec.RecordBlock(idx, tlb, miss, ok)
	}
	if e.blockListener != nil {
		e.blockListener(f.block.PC, len(f.block.Instrs))
	}
}

// Run interprets up to maxInstr retired instructions (0 means no
// budget). It returns nil when the program halts, ErrBudget when the
// budget expires first, and a descriptive error for runtime faults
// (out-of-range memory access, bad indirect call, stack overflow).
func (e *Engine) Run(maxInstr uint64) error {
	if e.halted {
		return nil
	}
	start := e.mach.Instructions()
	// limit is the absolute instruction count at which the budget
	// expires; no budget becomes an unreachable sentinel so the loop
	// head is a single comparison.
	limit := ^uint64(0)
	if maxInstr > 0 && maxInstr <= limit-start {
		limit = start + maxInstr
	}
	// f tracks the innermost frame; it changes only at call, return,
	// and halt, so the loop re-derives it there rather than every
	// iteration.
	f := &e.frames[e.depth-1]
	fast := e.mode == ModeOptimized
	for {
		if e.mach.Instructions() >= limit {
			return ErrBudget
		}
		if f.idx >= len(f.block.Instrs) {
			// Fall through to the next block (the validator
			// guarantees one exists).
			e.enterBlock(f, f.block.Index+1)
			continue
		}
		// Fast path: batch the whole block — straight-line runs of
		// simple micro-ops (executed by execRun with no per-op
		// bookkeeping), loads and stores, and the terminating branch
		// retire with one IssueBatch and one sampler settlement.
		// Folding is exact because nothing observable interleaves
		// inside a block: Data and CondBranch never read the
		// instruction count, the frame stack cannot move between a
		// block's instructions, cache/meter configurations only change
		// at method and block boundaries, and sampleDueN replays the
		// per-instruction sampler polls (and their fault-injector
		// consultations) at identical instruction indices. A faulting
		// memory access issues and samples before the bounds check
		// exactly like the stepped path, and the batch is capped to
		// the remaining budget so the stopping point is identical.
		// Calls, returns, and halts flush the batch and drop to the
		// stepped path, which reads the instruction count at frame
		// boundaries.
		if fast {
			ops := f.block.Ops
			i := f.idx
			rem := limit - e.mach.Instructions()
			var n uint64
			brIdx := -1
			var fastErr error
			if e.rec != nil {
				e.recData = e.recData[:0]
			}
		walk:
			for i < len(ops) && n < rem {
				op := &ops[i]
				if op.Run > 0 {
					k := uint64(op.Run)
					if k > rem-n {
						k = rem - n
					}
					execRun(&f.regs, ops[i:i+int(k)])
					i += int(k)
					n += k
					continue
				}
				switch op.Op {
				case isa.OpLoad:
					addr := f.regs[op.B] + op.Imm
					n++
					if addr < 0 || addr >= int64(len(e.mem)) {
						f.idx = i
						fastErr = e.fault(f, fmt.Sprintf("load address %d out of range [0,%d)", addr, len(e.mem)))
						break walk
					}
					tlbMiss := e.mach.Data(uint64(addr), false)
					if e.rec != nil {
						e.recData = append(e.recData, BodyData(uint64(addr), false, tlbMiss))
					}
					f.regs[op.A] = e.mem[addr]
					i++
				case isa.OpStore:
					addr := f.regs[op.B] + op.Imm
					n++
					if addr < 0 || addr >= int64(len(e.mem)) {
						f.idx = i
						fastErr = e.fault(f, fmt.Sprintf("store address %d out of range [0,%d)", addr, len(e.mem)))
						break walk
					}
					tlbMiss := e.mach.Data(uint64(addr), true)
					if e.rec != nil {
						e.recData = append(e.recData, BodyData(uint64(addr), true, tlbMiss))
					}
					e.mem[addr] = f.regs[op.A]
					i++
				case isa.OpBr, isa.OpBrZ, isa.OpJmp:
					brIdx = i
					n++
					i++
					break walk
				default:
					// Call, return, halt: frame-moving ops take the
					// stepped path below.
					break walk
				}
			}
			if n > 0 {
				e.mach.IssueBatch(n)
				if e.sampleEvery != 0 {
					if now := e.mach.Instructions(); now >= e.aos.nextSample {
						for t := e.aos.sampleDueN(now, n); t > 0; t-- {
							for d := 0; d < e.depth; d++ {
								e.aos.creditSample(e.frames[d].m.ID)
							}
						}
					}
				}
				e.stats.BatchedInstr += n
				e.stats.Runs++
				if fastErr != nil {
					if e.rec != nil {
						e.rec.RecordBody(e.recData, n, BranchNone)
					}
					return fastErr
				}
				f.idx = i
				if brIdx >= 0 {
					br := &ops[brIdx]
					switch br.Op {
					case isa.OpJmp:
						if e.rec != nil {
							e.rec.RecordBody(e.recData, n, BranchNone)
						}
						e.enterBlock(f, int(br.Imm))
					default:
						taken := (f.regs[br.A] != 0) == (br.Op == isa.OpBr)
						correct := e.mach.CondBranch(f.block.PC+uint64(brIdx), taken)
						if e.rec != nil {
							verdict := BranchWrong
							if correct {
								verdict = BranchCorrect
							}
							e.rec.RecordBody(e.recData, n, verdict)
						}
						if taken {
							e.enterBlock(f, int(br.Imm))
						}
					}
				} else if e.rec != nil {
					e.rec.RecordBody(e.recData, n, BranchNone)
				}
				continue
			}
		}
		op := &f.block.Ops[f.idx]

		// Stepped path: one instruction at a time — the reference
		// semantics.
		e.mach.Issue(1)
		if e.rec != nil {
			e.rec.RecordBatch(1)
		}
		if e.sampleEvery != 0 {
			for t := e.aos.sampleDue(e.mach.Instructions()); t > 0; t-- {
				for i := 0; i < e.depth; i++ {
					e.aos.creditSample(e.frames[i].m.ID)
				}
			}
		}
		e.stats.SteppedInstr++

		switch op.Op {
		case isa.OpNop:
			f.idx++
		case isa.OpConst:
			f.regs[op.A] = op.Imm
			f.idx++
		case isa.OpAdd:
			f.regs[op.A] = f.regs[op.B] + f.regs[op.C]
			f.idx++
		case isa.OpSub:
			f.regs[op.A] = f.regs[op.B] - f.regs[op.C]
			f.idx++
		case isa.OpMul:
			f.regs[op.A] = f.regs[op.B] * f.regs[op.C]
			f.idx++
		case isa.OpDiv:
			if d := f.regs[op.C]; d != 0 {
				f.regs[op.A] = f.regs[op.B] / d
			} else {
				f.regs[op.A] = 0
			}
			f.idx++
		case isa.OpRem:
			if d := f.regs[op.C]; d != 0 {
				f.regs[op.A] = f.regs[op.B] % d
			} else {
				f.regs[op.A] = 0
			}
			f.idx++
		case isa.OpAnd:
			f.regs[op.A] = f.regs[op.B] & f.regs[op.C]
			f.idx++
		case isa.OpOr:
			f.regs[op.A] = f.regs[op.B] | f.regs[op.C]
			f.idx++
		case isa.OpXor:
			f.regs[op.A] = f.regs[op.B] ^ f.regs[op.C]
			f.idx++
		case isa.OpShl:
			f.regs[op.A] = f.regs[op.B] << (uint64(f.regs[op.C]) & 63)
			f.idx++
		case isa.OpShr:
			f.regs[op.A] = int64(uint64(f.regs[op.B]) >> (uint64(f.regs[op.C]) & 63))
			f.idx++
		case isa.OpAddI:
			f.regs[op.A] = f.regs[op.B] + op.Imm
			f.idx++
		case isa.OpMulI:
			f.regs[op.A] = f.regs[op.B] * op.Imm
			f.idx++
		case isa.OpAndI:
			f.regs[op.A] = f.regs[op.B] & op.Imm
			f.idx++
		case isa.OpXorI:
			f.regs[op.A] = f.regs[op.B] ^ op.Imm
			f.idx++
		case isa.OpShlI:
			f.regs[op.A] = f.regs[op.B] << (uint64(op.Imm) & 63)
			f.idx++
		case isa.OpShrI:
			f.regs[op.A] = int64(uint64(f.regs[op.B]) >> (uint64(op.Imm) & 63))
			f.idx++
		case isa.OpCmpLt:
			f.regs[op.A] = boolReg(f.regs[op.B] < f.regs[op.C])
			f.idx++
		case isa.OpCmpEq:
			f.regs[op.A] = boolReg(f.regs[op.B] == f.regs[op.C])
			f.idx++

		case isa.OpLoad:
			addr := f.regs[op.B] + op.Imm
			if addr < 0 || addr >= int64(len(e.mem)) {
				return e.fault(f, fmt.Sprintf("load address %d out of range [0,%d)", addr, len(e.mem)))
			}
			tlbMiss := e.mach.Data(uint64(addr), false)
			if e.rec != nil {
				e.rec.RecordData(uint64(addr), false, tlbMiss)
			}
			f.regs[op.A] = e.mem[addr]
			f.idx++
		case isa.OpStore:
			addr := f.regs[op.B] + op.Imm
			if addr < 0 || addr >= int64(len(e.mem)) {
				return e.fault(f, fmt.Sprintf("store address %d out of range [0,%d)", addr, len(e.mem)))
			}
			tlbMiss := e.mach.Data(uint64(addr), true)
			if e.rec != nil {
				e.rec.RecordData(uint64(addr), true, tlbMiss)
			}
			e.mem[addr] = f.regs[op.A]
			f.idx++

		case isa.OpBr:
			taken := f.regs[op.A] != 0
			correct := e.mach.CondBranch(f.block.PC+uint64(f.idx), taken)
			if e.rec != nil {
				e.rec.RecordBranch(correct)
			}
			if taken {
				e.enterBlock(f, int(op.Imm))
			} else {
				f.idx++
			}
		case isa.OpBrZ:
			taken := f.regs[op.A] == 0
			correct := e.mach.CondBranch(f.block.PC+uint64(f.idx), taken)
			if e.rec != nil {
				e.rec.RecordBranch(correct)
			}
			if taken {
				e.enterBlock(f, int(op.Imm))
			} else {
				f.idx++
			}
		case isa.OpJmp:
			e.enterBlock(f, int(op.Imm))

		case isa.OpCall:
			if e.depth >= len(e.frames) {
				return e.fault(f, "call stack overflow")
			}
			f.idx++ // return address
			callee := program.MethodID(op.Imm)
			args := [4]int64{f.regs[0], f.regs[1], f.regs[2], f.regs[3]}
			e.push(callee, op.A)
			f = &e.frames[e.depth-1]
			f.regs[0], f.regs[1], f.regs[2], f.regs[3] = args[0], args[1], args[2], args[3]
		case isa.OpCallR:
			target := f.regs[op.B]
			if target < 0 || int(target) >= e.prog.NumMethods() {
				return e.fault(f, fmt.Sprintf("indirect call to m%d out of range (%d methods)", target, e.prog.NumMethods()))
			}
			if e.depth >= len(e.frames) {
				return e.fault(f, "call stack overflow")
			}
			f.idx++
			args := [4]int64{f.regs[0], f.regs[1], f.regs[2], f.regs[3]}
			e.push(program.MethodID(target), op.A)
			f = &e.frames[e.depth-1]
			f.regs[0], f.regs[1], f.regs[2], f.regs[3] = args[0], args[1], args[2], args[3]

		case isa.OpRet:
			val := f.regs[op.A]
			e.aos.methodExit(f.m.ID, e.mach.Instructions()-f.entryInstr)
			if e.rec != nil {
				e.rec.RecordExit()
			}
			e.depth--
			if e.depth == 0 {
				// Returning from the entry method ends the
				// program like a halt.
				e.halted = true
				return nil
			}
			caller := &e.frames[e.depth-1]
			caller.regs[f.retReg] = val
			f = caller

		case isa.OpHalt:
			if e.rec != nil {
				e.rec.RecordHalt()
			}
			e.unwindOnHalt()
			e.halted = true
			return nil

		default:
			return e.fault(f, "unimplemented opcode")
		}
	}
}

// execRun executes a straight-line run of pre-decoded simple micro-ops
// against the register file. Simple ops cannot fault and touch neither
// memory nor the machine model, so the loop carries no per-instruction
// bookkeeping — the caller has already issued and sampled the batch.
func execRun(regs *[isa.NumRegs]int64, ops []program.Micro) {
	for i := range ops {
		op := &ops[i]
		switch op.Op {
		case isa.OpNop:
		case isa.OpConst:
			regs[op.A] = op.Imm
		case isa.OpAdd:
			regs[op.A] = regs[op.B] + regs[op.C]
		case isa.OpSub:
			regs[op.A] = regs[op.B] - regs[op.C]
		case isa.OpMul:
			regs[op.A] = regs[op.B] * regs[op.C]
		case isa.OpDiv:
			if d := regs[op.C]; d != 0 {
				regs[op.A] = regs[op.B] / d
			} else {
				regs[op.A] = 0
			}
		case isa.OpRem:
			if d := regs[op.C]; d != 0 {
				regs[op.A] = regs[op.B] % d
			} else {
				regs[op.A] = 0
			}
		case isa.OpAnd:
			regs[op.A] = regs[op.B] & regs[op.C]
		case isa.OpOr:
			regs[op.A] = regs[op.B] | regs[op.C]
		case isa.OpXor:
			regs[op.A] = regs[op.B] ^ regs[op.C]
		case isa.OpShl:
			regs[op.A] = regs[op.B] << (uint64(regs[op.C]) & 63)
		case isa.OpShr:
			regs[op.A] = int64(uint64(regs[op.B]) >> (uint64(regs[op.C]) & 63))
		case isa.OpAddI:
			regs[op.A] = regs[op.B] + op.Imm
		case isa.OpMulI:
			regs[op.A] = regs[op.B] * op.Imm
		case isa.OpAndI:
			regs[op.A] = regs[op.B] & op.Imm
		case isa.OpXorI:
			regs[op.A] = regs[op.B] ^ op.Imm
		case isa.OpShlI:
			regs[op.A] = regs[op.B] << (uint64(op.Imm) & 63)
		case isa.OpShrI:
			regs[op.A] = int64(uint64(regs[op.B]) >> (uint64(op.Imm) & 63))
		case isa.OpCmpLt:
			regs[op.A] = boolReg(regs[op.B] < regs[op.C])
		case isa.OpCmpEq:
			regs[op.A] = boolReg(regs[op.B] == regs[op.C])
		}
	}
}

// unwindOnHalt fires exit events for all in-flight frames so the DO
// database and any boundary hooks see balanced enters/exits.
func (e *Engine) unwindOnHalt() {
	now := e.mach.Instructions()
	for e.depth > 0 {
		f := &e.frames[e.depth-1]
		e.aos.methodExit(f.m.ID, now-f.entryInstr)
		e.depth--
	}
}

func (e *Engine) fault(f *frame, msg string) error {
	in := f.block.Instrs[f.idx]
	return fmt.Errorf("vm: fault in %q (m%d) block @%d instr %d [%s]: %s",
		f.m.Name, f.m.ID, f.block.Index, f.idx, in, msg)
}

func boolReg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
