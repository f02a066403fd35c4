// Package program represents executable programs for the simulated
// machine: methods made of basic blocks, plus a builder API that the
// workload generators use to assemble them and a validator that checks
// structural well-formedness before execution.
package program

import (
	"fmt"

	"acedo/internal/isa"
)

// MethodID names a method within a program. IDs are dense, assigned in
// creation order, and used directly as call targets.
type MethodID int

// Block is a basic block: a straight-line instruction sequence that is
// entered only at its first instruction and left only at its last.
type Block struct {
	// Index is the block's position within its method; branch
	// immediates name blocks by this index.
	Index int
	// Instrs is the instruction sequence. The last instruction of
	// every block except the method's last must be a terminator or
	// the block falls through.
	Instrs []isa.Instr
	// PC is the global address of the block's first instruction,
	// assigned by Program.Seal. Instruction i of the block has
	// address PC+i. Used by the branch predictor, the BBV
	// accumulator and the I-cache.
	PC uint64

	// Ops is the pre-decoded micro-op stream, one Micro per
	// instruction, computed by Seal. The engine's block-batched fast
	// path dispatches on this dense representation (operands and run
	// lengths in one cache line-friendly struct) instead of
	// re-reading the encoded Instrs.
	Ops []Micro

	// FirstLine and LastLine are the byte addresses of the first and
	// last L1I cache lines the block's instructions occupy, computed
	// by Seal so machine.FetchLines takes them as they are on every
	// block entry.
	FirstLine, LastLine uint64
}

// Micro is one pre-decoded micro-op. It mirrors isa.Instr's operand
// fields and adds Run: the length of the maximal straight-line run of
// simple ops (isa.Opcode.IsSimple) starting at this instruction, or 0
// when the op itself is not simple. The engine issues a whole run with
// one machine.IssueBatch call and one sampler settlement.
type Micro struct {
	Op      isa.Opcode
	A, B, C uint8
	Run     int32
	Imm     int64
}

// Method is a named, callable unit. Control enters at block 0 and
// leaves via OpRet (or OpHalt in the entry method).
type Method struct {
	ID     MethodID
	Name   string
	Blocks []*Block

	// StaticInstrs is the total instruction count across blocks,
	// computed by Seal.
	StaticInstrs int
}

// Block returns the block at index i.
func (m *Method) Block(i int) *Block { return m.Blocks[i] }

// Program is a sealed collection of methods plus an initial data
// memory image. The method with ID Entry is where execution starts.
type Program struct {
	Name    string
	Methods []*Method
	Entry   MethodID

	// MemWords is the size of the data memory in words. The memory
	// image starts zeroed; generators that need initialized data
	// emit initialization code (so initialization traffic is real).
	MemWords int

	// TotalStaticInstrs is the program-wide static instruction
	// count, computed by Seal.
	TotalStaticInstrs int

	sealed bool
}

// Method returns the method with the given ID, or nil if out of range.
func (p *Program) Method(id MethodID) *Method {
	if int(id) < 0 || int(id) >= len(p.Methods) {
		return nil
	}
	return p.Methods[id]
}

// NumMethods returns the number of methods in the program.
func (p *Program) NumMethods() int { return len(p.Methods) }

// Sealed reports whether Seal has completed on this program.
func (p *Program) Sealed() bool { return p.sealed }

// Seal assigns global PCs to every block, computes static instruction
// counts, pre-decodes every block (micro-op stream, straight-line run
// lengths, I-cache line range), and validates the whole program. After
// Seal the program is immutable and runnable. Seal is idempotent.
func (p *Program) Seal() error {
	if p.sealed {
		return nil
	}
	var pc uint64
	p.TotalStaticInstrs = 0
	for _, m := range p.Methods {
		m.StaticInstrs = 0
		for _, b := range m.Blocks {
			b.PC = pc
			pc += uint64(len(b.Instrs))
			m.StaticInstrs += len(b.Instrs)
			b.decode()
		}
		p.TotalStaticInstrs += m.StaticInstrs
	}
	if err := p.validate(); err != nil {
		return err
	}
	p.sealed = true
	return nil
}

// decode computes the block's sealed fast-path annotations: the
// micro-op stream with straight-line run lengths and the absolute
// L1I line range. Must run after the block's PC is assigned.
func (b *Block) decode() {
	n := len(b.Instrs)
	b.Ops = make([]Micro, n)
	for i, in := range b.Instrs {
		b.Ops[i] = Micro{Op: in.Op, A: in.A, B: in.B, C: in.C, Imm: in.Imm}
	}
	// Run lengths, back to front: a simple op extends the run that
	// starts at its successor.
	for i := n - 1; i >= 0; i-- {
		if !b.Ops[i].Op.IsSimple() {
			continue
		}
		b.Ops[i].Run = 1
		if i+1 < n {
			b.Ops[i].Run += b.Ops[i+1].Run
		}
	}
	span := n
	if span < 1 {
		span = 1
	}
	b.FirstLine = (isa.IBase + b.PC*isa.InstrBytes) &^ (isa.ILineBytes - 1)
	b.LastLine = (isa.IBase + (b.PC+uint64(span)-1)*isa.InstrBytes) &^ (isa.ILineBytes - 1)
}

// validate checks structural well-formedness: every instruction valid,
// every branch target in range, every call target a real method, every
// block properly terminated, the entry method present, and memory
// accesses plausibly bounded (dynamic bounds are enforced at runtime).
func (p *Program) validate() error {
	if len(p.Methods) == 0 {
		return fmt.Errorf("program %q: no methods", p.Name)
	}
	if p.Method(p.Entry) == nil {
		return fmt.Errorf("program %q: entry method %d out of range", p.Name, p.Entry)
	}
	if p.MemWords < 0 {
		return fmt.Errorf("program %q: negative memory size %d", p.Name, p.MemWords)
	}
	for mi, m := range p.Methods {
		if m.ID != MethodID(mi) {
			return fmt.Errorf("program %q: method %q has ID %d at position %d", p.Name, m.Name, m.ID, mi)
		}
		if err := p.validateMethod(m); err != nil {
			return fmt.Errorf("program %q: method %q: %w", p.Name, m.Name, err)
		}
	}
	return nil
}

func (p *Program) validateMethod(m *Method) error {
	if len(m.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	for bi, b := range m.Blocks {
		if b.Index != bi {
			return fmt.Errorf("block at position %d has index %d", bi, b.Index)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %d: empty", bi)
		}
		for ii, in := range b.Instrs {
			if err := in.Validate(); err != nil {
				return fmt.Errorf("block %d instr %d: %w", bi, ii, err)
			}
			if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("block %d instr %d: terminator %s not at block end", bi, ii, in.Op)
			}
			switch in.Op {
			case isa.OpBr, isa.OpBrZ, isa.OpJmp:
				if int(in.Imm) >= len(m.Blocks) {
					return fmt.Errorf("block %d instr %d: branch target @%d out of range (%d blocks)",
						bi, ii, in.Imm, len(m.Blocks))
				}
			case isa.OpCall:
				if p.Method(MethodID(in.Imm)) == nil {
					return fmt.Errorf("block %d instr %d: call target m%d does not exist", bi, ii, in.Imm)
				}
			case isa.OpHalt:
				if m.ID != p.Entry {
					return fmt.Errorf("block %d instr %d: halt outside entry method", bi, ii)
				}
			}
		}
		last := b.Instrs[len(b.Instrs)-1].Op
		fallsThrough := !last.IsTerminator() || last.IsConditional()
		if fallsThrough && bi == len(m.Blocks)-1 {
			return fmt.Errorf("block %d: falls off the end of the method", bi)
		}
	}
	return nil
}

// Disassemble renders the method as text, one instruction per line,
// for debugging and golden tests.
func (m *Method) Disassemble() string {
	s := fmt.Sprintf("method m%d %q:\n", m.ID, m.Name)
	for _, b := range m.Blocks {
		s += fmt.Sprintf("  @%d:\n", b.Index)
		for i, in := range b.Instrs {
			s += fmt.Sprintf("    %4d  %s\n", b.PC+uint64(i), in)
		}
	}
	return s
}
