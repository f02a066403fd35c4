// Package isa defines the instruction set of the simulated register
// machine that the dynamic optimization system executes.
//
// The machine is a 32-register, 64-bit, word-addressed design. It is
// deliberately small — just enough to express the loops, hash probes,
// calls and branches the workloads need — while still being a real ISA:
// every address and branch outcome is computed by executing code, not
// replayed from a trace.
//
// Memory is word-addressed by the ISA (one word = 8 bytes); the memory
// hierarchy sees byte addresses (word index × 8).
package isa

import "fmt"

// NumRegs is the number of general-purpose registers per frame.
const NumRegs = 32

// WordBytes is the size in bytes of one memory word as seen by the
// cache hierarchy; WordShift is its log2.
const (
	WordShift = 3
	WordBytes = 1 << WordShift
)

// Data-side block geometry: the L1D's block holds DBlockBytes bytes
// (DBlockShift is its log2). machine.New builds the L1D with it, and a
// recorded trace stores each data access as the index of its block,
// which every replayed data cache (the L1D, and the L2 at a coarser
// block) resolves to the same set and tag as the full address.
const (
	DBlockShift = 6
	DBlockBytes = 1 << DBlockShift
)

// Instruction address-space geometry, shared by the program sealer
// (which precomputes each block's I-cache line range at Seal) and the
// machine's I-fetch path. Instructions are 4 bytes apart; instruction
// addresses live in a region disjoint from data (IBase) so the unified
// L2 keeps I- and D-blocks apart; the L1I line holds ILineBytes bytes
// (16 instructions).
const (
	InstrBytes = 4
	ILineBytes = 64
	IBase      = uint64(1) << 40
)

// Opcode identifies an instruction kind.
type Opcode uint8

// The instruction set. Three-operand ALU ops read B and C and write A.
// Immediate forms read B and Imm. Loads/stores address memory at
// r[B]+Imm words. Branches test registers and transfer control to the
// basic block whose index within the method is Imm.
const (
	OpNop Opcode = iota

	// OpConst sets r[A] = Imm.
	OpConst

	// ALU register-register: r[A] = r[B] op r[C].
	OpAdd
	OpSub
	OpMul
	OpDiv // divide-by-zero yields 0, like a trap handler returning 0
	OpRem // remainder; by zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl // shift amounts are masked to 6 bits
	OpShr // logical shift right

	// ALU register-immediate: r[A] = r[B] op Imm.
	OpAddI
	OpMulI
	OpAndI
	OpXorI
	OpShlI
	OpShrI

	// Comparisons: r[A] = 1 if the relation holds, else 0.
	OpCmpLt // r[A] = r[B] < r[C]
	OpCmpEq // r[A] = r[B] == r[C]

	// OpLoad reads r[A] = mem[r[B]+Imm]; OpStore writes
	// mem[r[B]+Imm] = r[A]. The effective address is in words.
	OpLoad
	OpStore

	// Control flow. OpBr branches to block Imm when r[A] != 0;
	// OpBrZ branches when r[A] == 0; OpJmp always branches.
	// A branch that is not taken falls through to the next block.
	OpBr
	OpBrZ
	OpJmp

	// OpCall invokes method Imm, passing r[0..3] as the callee's
	// r[0..3]; the callee's return value (its r[0]) lands in r[A].
	OpCall

	// OpCallR is an indirect call: the callee method ID is in r[B].
	// Used by workloads to create megamorphic call sites.
	OpCallR

	// OpRet returns r[A] to the caller.
	OpRet

	// OpHalt stops the machine. Only valid in the entry method.
	OpHalt

	opcodeCount // sentinel; keep last
)

var opcodeNames = [...]string{
	OpNop:   "nop",
	OpConst: "const",
	OpAdd:   "add",
	OpSub:   "sub",
	OpMul:   "mul",
	OpDiv:   "div",
	OpRem:   "rem",
	OpAnd:   "and",
	OpOr:    "or",
	OpXor:   "xor",
	OpShl:   "shl",
	OpShr:   "shr",
	OpAddI:  "addi",
	OpMulI:  "muli",
	OpAndI:  "andi",
	OpXorI:  "xori",
	OpShlI:  "shli",
	OpShrI:  "shri",
	OpCmpLt: "cmplt",
	OpCmpEq: "cmpeq",
	OpLoad:  "load",
	OpStore: "store",
	OpBr:    "br",
	OpBrZ:   "brz",
	OpJmp:   "jmp",
	OpCall:  "call",
	OpCallR: "callr",
	OpRet:   "ret",
	OpHalt:  "halt",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool {
	return op < opcodeCount
}

// IsBranch reports whether the opcode conditionally or unconditionally
// transfers control to another basic block in the same method.
func (op Opcode) IsBranch() bool {
	switch op {
	case OpBr, OpBrZ, OpJmp:
		return true
	}
	return false
}

// IsConditional reports whether the opcode is a conditional branch.
func (op Opcode) IsConditional() bool {
	return op == OpBr || op == OpBrZ
}

// IsTerminator reports whether the opcode may legally end a basic
// block. Conditional branches fall through to the next block when not
// taken, so a block ending in one must not be the last block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpBr, OpBrZ, OpJmp, OpRet, OpHalt:
		return true
	}
	return false
}

// IsSimple reports whether the opcode is a straight-line register op
// with no memory, control-flow, or machine-event side effects — the
// class the engine's block-batched fast path executes in a tight loop
// (one Issue call and one sampler settlement per run). Every opcode
// that is not simple touches the machine model (Data, CondBranch,
// Fetch via a block transfer) or the frame stack, and is stepped
// individually.
func (op Opcode) IsSimple() bool {
	switch op {
	case OpNop, OpConst,
		OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpAddI, OpMulI, OpAndI, OpXorI, OpShlI, OpShrI,
		OpCmpLt, OpCmpEq:
		return true
	}
	return false
}

// IsMem reports whether the opcode accesses data memory.
func (op Opcode) IsMem() bool {
	return op == OpLoad || op == OpStore
}

// IsCall reports whether the opcode invokes another method.
func (op Opcode) IsCall() bool {
	return op == OpCall || op == OpCallR
}

// Instr is one machine instruction. The operand fields A, B, C name
// registers; Imm carries immediates, branch-target block indices, and
// call-target method IDs, depending on the opcode.
type Instr struct {
	Op      Opcode
	A, B, C uint8
	Imm     int64
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpConst:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.A, in.Imm)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmpLt, OpCmpEq:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	case OpAddI, OpMulI, OpAndI, OpXorI, OpShlI, OpShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.A, in.B, in.Imm)
	case OpStore:
		return fmt.Sprintf("store [r%d+%d], r%d", in.B, in.Imm, in.A)
	case OpBr:
		return fmt.Sprintf("br r%d, @%d", in.A, in.Imm)
	case OpBrZ:
		return fmt.Sprintf("brz r%d, @%d", in.A, in.Imm)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case OpCall:
		return fmt.Sprintf("call r%d, m%d", in.A, in.Imm)
	case OpCallR:
		return fmt.Sprintf("callr r%d, (r%d)", in.A, in.B)
	case OpRet:
		return fmt.Sprintf("ret r%d", in.A)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d, %d", in.Op, in.A, in.B, in.C, in.Imm)
}

// Validate checks operand well-formedness independent of any program
// context (register indices in range, opcode defined). Branch/call
// target validity is checked by the program validator, which knows the
// enclosing method and program.
func (in Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.A >= NumRegs || in.B >= NumRegs || in.C >= NumRegs {
		return fmt.Errorf("isa: %s: register operand out of range (A=%d B=%d C=%d, max %d)",
			in.Op, in.A, in.B, in.C, NumRegs-1)
	}
	switch in.Op {
	case OpBr, OpBrZ, OpJmp:
		if in.Imm < 0 {
			return fmt.Errorf("isa: %s: negative branch target %d", in.Op, in.Imm)
		}
	case OpCall:
		if in.Imm < 0 {
			return fmt.Errorf("isa: call: negative method ID %d", in.Imm)
		}
	}
	return nil
}
