package core

import (
	"sort"

	"acedo/internal/hotspot"
	"acedo/internal/isa"
	"acedo/internal/machine"
	"acedo/internal/program"
)

// Analyzer implements the paper's Section 6 future-work proposal: "one
// could use the JIT compiler in the DO system to provide a good
// estimate for the resource configuration required for this hotspot
// through appropriate code analysis. Such a feature could potentially
// completely eliminate the tuning latency and overhead."
//
// It estimates each method's data footprint by lightweight abstract
// interpretation of the method body:
//
//   - registers holding compile-time constants are tracked (the
//     generators and most straight-line code materialize array bases
//     with Const);
//   - index registers acquire upper bounds from CmpLt comparisons
//     against constants (loop bounds) and AndI masks (probe index
//     masking);
//   - every Load/Store whose address decomposes into a constant base
//     plus a bounded index contributes the interval
//     [base, base+bound] to the method's footprint.
//
// Footprints are inclusive: a method's intervals are unioned with its
// callees' (indirect calls are ignored — their targets are unknown to
// static analysis). The estimate is a heuristic: methods whose
// addresses are entirely data-dependent simply contribute nothing,
// which makes the hint decline (ok=false) rather than guess.
type Analyzer struct {
	prog *program.Program
	// own[i] holds method i's own access intervals (in words).
	own         [][2]int64
	ownByMethod [][]int // indices into own, per method
	// inclusive[i] is the memoized inclusive footprint in bytes.
	inclusive []int
	visited   []uint8 // 0 unvisited, 1 in progress, 2 done
	callees   [][]program.MethodID
}

// NewAnalyzer analyzes a sealed program.
func NewAnalyzer(p *program.Program) *Analyzer {
	a := &Analyzer{
		prog:        p,
		ownByMethod: make([][]int, p.NumMethods()),
		inclusive:   make([]int, p.NumMethods()),
		visited:     make([]uint8, p.NumMethods()),
		callees:     make([][]program.MethodID, p.NumMethods()),
	}
	for _, m := range p.Methods {
		a.scanMethod(m)
	}
	for id := range p.Methods {
		a.resolve(program.MethodID(id))
	}
	return a
}

// absVal is the abstract value of a register: unknown, a compile-time
// constant, or a half-open range [lo, hi).
type absVal struct {
	kind   uint8
	c      int64 // constant value (vConst)
	lo, hi int64 // range bounds (vRange), hi exclusive
}

const (
	vUnknown = 0
	vConst   = 1
	vRange   = 2
)

// scanMethod walks the method's instructions once, in layout order,
// tracking abstract register values and recording access intervals.
// Loops revisit the same instructions with the same abstract effects,
// so one pass suffices for the estimate.
func (a *Analyzer) scanMethod(m *program.Method) {
	var regs [isa.NumRegs]absVal
	// bounds[r] is the largest constant r was compared against
	// (CmpLt against a constant register: a loop bound).
	var bounds [isa.NumRegs]int64
	// mutated[r] marks loop-carried registers (written from
	// themselves): a Const to such a register is a loop index's
	// initial value, not a constant.
	var mutated [isa.NumRegs]bool
	for _, blk := range m.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == isa.OpCmpLt {
				if c := constOf(m, in.C); c > bounds[in.B] {
					bounds[in.B] = c
				}
			}
			switch in.Op {
			case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
				isa.OpXor, isa.OpShl, isa.OpShr:
				if in.A == in.B || in.A == in.C {
					mutated[in.A] = true
				}
			case isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpXorI,
				isa.OpShlI, isa.OpShrI:
				if in.A == in.B {
					mutated[in.A] = true
				}
			}
		}
	}

	addInterval := func(lo, hi int64) {
		if hi <= lo {
			hi = lo + 1
		}
		a.ownByMethod[m.ID] = append(a.ownByMethod[m.ID], len(a.own))
		a.own = append(a.own, [2]int64{lo, hi})
	}

	for _, blk := range m.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case isa.OpConst:
				if mutated[in.A] {
					hi := bounds[in.A]
					if hi <= in.Imm {
						hi = in.Imm + 1
					}
					regs[in.A] = absVal{kind: vRange, lo: in.Imm, hi: hi}
				} else {
					regs[in.A] = absVal{kind: vConst, c: in.Imm}
				}
			case isa.OpAdd:
				regs[in.A] = addAbs(regs[in.B], regs[in.C])
			case isa.OpAddI:
				regs[in.A] = addAbs(regs[in.B], absVal{kind: vConst, c: in.Imm})
			case isa.OpAndI:
				// Masking yields an index in [0, mask].
				regs[in.A] = absVal{kind: vRange, lo: 0, hi: in.Imm + 1}
			case isa.OpLoad, isa.OpStore:
				base := regs[in.B]
				switch base.kind {
				case vConst:
					addInterval(base.c+in.Imm, base.c+in.Imm+1)
				case vRange:
					addInterval(base.lo+in.Imm, base.hi+in.Imm)
				}
			case isa.OpCall:
				a.callees[m.ID] = append(a.callees[m.ID], program.MethodID(in.Imm))
				regs[in.A] = absVal{}
			case isa.OpCallR, isa.OpMul, isa.OpMulI, isa.OpDiv, isa.OpRem,
				isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpXorI,
				isa.OpShl, isa.OpShr, isa.OpShlI, isa.OpShrI,
				isa.OpCmpLt, isa.OpCmpEq:
				regs[in.A] = absVal{}
			}
		}
	}
}

// addAbs adds two abstract values.
func addAbs(x, y absVal) absVal {
	switch {
	case x.kind == vConst && y.kind == vConst:
		return absVal{kind: vConst, c: x.c + y.c}
	case x.kind == vConst && y.kind == vRange:
		return absVal{kind: vRange, lo: x.c + y.lo, hi: x.c + y.hi}
	case x.kind == vRange && y.kind == vConst:
		return absVal{kind: vRange, lo: x.lo + y.c, hi: x.hi + y.c}
	}
	return absVal{}
}

// constOf returns the value reg is set to by a Const anywhere in the
// method, or 0. The generators assign loop limits once, so the last
// Const wins ties.
func constOf(m *program.Method, reg uint8) int64 {
	var v int64
	for _, blk := range m.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == isa.OpConst && in.A == reg {
				v = in.Imm
			}
		}
	}
	return v
}

// resolve computes the inclusive footprint of a method via DFS over
// the call graph (cycles contribute their own intervals once).
func (a *Analyzer) resolve(id program.MethodID) []int {
	if a.visited[id] == 2 {
		return a.ownByMethod[id]
	}
	if a.visited[id] == 1 {
		return nil // cycle: own intervals are already counted upstream
	}
	a.visited[id] = 1
	all := append([]int{}, a.ownByMethod[id]...)
	for _, callee := range a.callees[id] {
		all = append(all, a.resolve(callee)...)
	}
	a.ownByMethod[id] = dedupInts(all)
	a.inclusive[id] = a.unionBytes(a.ownByMethod[id])
	a.visited[id] = 2
	return a.ownByMethod[id]
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// unionBytes merges the word intervals and returns the union length in
// bytes.
func (a *Analyzer) unionBytes(idxs []int) int {
	if len(idxs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idxs))
	for _, i := range idxs {
		iv = append(iv, a.own[i])
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var words int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] <= curHi {
			if x[1] > curHi {
				curHi = x[1]
			}
			continue
		}
		words += curHi - curLo
		curLo, curHi = x[0], x[1]
	}
	words += curHi - curLo
	return int(words) * isa.WordBytes
}

// Footprint returns the estimated inclusive data footprint of a method
// in bytes (0 when the analysis found no statically-resolvable
// accesses).
func (a *Analyzer) Footprint(id program.MethodID) int {
	return a.inclusive[id]
}

// HintFor builds a Params.StaticHint for the given machine
// configuration: the hinted configuration is the smallest setting at
// least twice the estimated footprint (occupancy headroom for
// co-resident data), from the ladder of the cache the hotspot's class
// manages. The hint declines when the analysis found nothing, and for
// a class whose unit a data footprint does not size (the micro class's
// issue queue), so such hotspots take the tuning descent.
func (a *Analyzer) HintFor(cfg machine.Config) func(program.MethodID, hotspot.Class, float64) ([]int, bool) {
	return func(id program.MethodID, class hotspot.Class, _ float64) ([]int, bool) {
		var ladder []int
		switch class {
		case hotspot.ClassL1D:
			ladder = cfg.L1DSizes
		case hotspot.ClassL2:
			ladder = cfg.L2Sizes
		default:
			return nil, false
		}
		foot := a.Footprint(id)
		if foot == 0 {
			return nil, false
		}
		for i, size := range ladder {
			if size >= 2*foot {
				return []int{i}, true
			}
		}
		return []int{len(ladder) - 1}, true
	}
}
