// Summarized-block replay: the recorder folds every block instance's
// body events (data accesses, retire batches, branch verdicts, D-TLB
// outcomes) into one pre-aggregated op, together with the instance's
// distinct-line data footprint. Replays walk that op stream:
// single-access bodies (the overwhelming case in the suite's workloads)
// apply as one direct data access, multi-access bodies whose footprint
// is fully resident in the live L1D apply as one bulk arithmetic
// update — stats, LRU ticks, dirty bits, energy, and stalls land
// exactly where the per-access path puts them (see
// cache.TryApplyFootprint) — and everything else falls back to the
// exact per-access path.
//
// The op stream is deliberately tiny — 8 bytes per op — because the
// replay loop is memory-bound: the suite's traces record millions
// of ops, so every extra op byte is a byte of DRAM traffic on every
// replay. Each op is one word: the high half indexes a per-trace table
// of interned op shapes (the op's kind and body counts, plus its
// block's pc), the low half is the operand — the body's single data
// access, or an ext-table index. The stream repeats a few hundred
// shapes millions of times, so the shape table stays in L1 while the
// walk streams the operands. The stream is stored as a list of
// fixed-size segments (opSeg), so the recorder appends a fresh
// segment when the current one fills and never copies: a trace
// carries at most one partly filled segment of slack, and no recording
// needs its length known up front. The common case (an intra-method
// block entry with a short retire batch and at most one data access
// whose address fits the operand) packs into its shape; everything
// rare — method entries, masked fetch walks, multi-access bodies, wide
// addresses or counts — overflows into a fat side table consulted only
// when an op's shape has the ext bit set.
package rtrace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

	"acedo/internal/cache"
	"acedo/internal/isa"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
)

// Summary op kinds. Every op carries a boundary action (what kind of
// trace event opened it) plus the aggregated body events that followed
// it up to the next boundary.
const (
	opSeq       = iota // no boundary action (leading body events)
	opEnter            // method entry (+ first block fetch); always ext
	opBlock            // intra-method block entry (fetch)
	opExit             // method return
	opHalt             // explicit halt (unwinds all frames)
	opEndHalted        // end marker: program halted
	opEndBudget        // end marker: instruction budget reached
)

// Shape bit layout of opShape.w. Any op whose fields do not fit (and
// every opEnter, masked fetch, or multi-access body) is stored as an
// ext record instead: its shape is just the kind with opExtBit set,
// and its operand is the summary.ext index.
const (
	opKindBits = 3
	opExtBit   = 1 << 3

	opLinesShift = 4       // 6 bits: I-lines in the fetch walk
	opDataBit    = 1 << 10 // the body's single data access is the operand
	opTLBShift   = 11      // 1 bit: ... and it missed the D-TLB
	opBrShift    = 12      // 8 bits: body branch mispredictions
	opBatchShift = 20      // 19 bits: body retired-instruction total

	opLinesMax = 1<<6 - 1
	opBrMax    = 1<<8 - 1
	opBatchMax = 1<<19 - 1
	opInstrMax = 1<<8 - 1 // block instr count packable into the pc word

	// maxPackedPC bounds the block-start pc packable into the 32-bit
	// pc word alongside the 8-bit instr count; blocks beyond it (no
	// suite program comes near) are stored as ext records, which carry
	// the full-width pc.
	maxPackedPC = 1<<24 - 1

	// maxOperand bounds a packed op's data access (wordAddr<<1 |
	// write): it shares the op word with the shape index.
	maxOperand = 1<<32 - 1
)

// opShape is one distinct packed op: w holds the kind and the
// bit-fields above, pc the block's pc<<8 | nInstrs (0 when no block is
// open; listener replays only). Ext ops share one shape per kind.
type opShape struct {
	w  uint64
	pc uint32
}

// Op-stream segmentation: segOps 8-byte ops (512 KiB) per segment. Op
// i lives at offset i&segMask of segment i>>segShift; its high 32 bits
// index summary.shapes, its low 32 bits are the operand.
const (
	segShift = 16
	segOps   = 1 << segShift
	segMask  = segOps - 1
)

// opSeg is one fixed-size segment of the op stream. Every segment of a
// summary but the last is full.
type opSeg [segOps]uint64

// sumExt is the unpacked form of a rare op: method entries (which need
// the method ID), masked fetch walks (which need the line range and
// the recorded I-TLB/L1I outcome masks), and bodies whose counts
// overflow the packed fields, and every body with two or more data
// accesses or an access too wide for the operand.
type sumExt struct {
	firstLine uint64 // opEnter/opBlock: first I-line byte address
	pc        uint64 // opEnter/opBlock: block's first-instruction index
	batch     uint64 // body: total retired instructions
	tlbMask   uint64 // fetch walk: recorded I-TLB miss mask
	missMask  uint64 // fetch walk: recorded L1I miss mask
	dataOff   uint32 // body: offset into summary.data
	footOff   uint32 // body: offset into summary.foot
	nData     uint32 // body: data access count
	nInstrs   uint32 // opEnter/opBlock: block instruction count
	dtlb      uint32 // body: recorded D-TLB misses
	brWrong   uint32 // body: recorded branch mispredictions
	method    int32  // opEnter: method ID; -1 otherwise
	nLines    uint16 // opEnter/opBlock: I-lines in the fetch walk
	nFoot     uint8  // body: footprint length (0 with fastOK unset)
	fastOK    bool   // footprint small enough for the bulk-apply path
}

// summary is a recording resolved against its program: the op stream,
// the shape table every op indexes, the side table rare ops index
// into, and the flat data-access and footprint tables for ext bodies.
// Immutable once Finish seals it, and shared by every concurrent
// replay of the trace.
type summary struct {
	segs    []*opSeg
	n       int // ops in the stream, across segs
	shapes  []opShape
	ext     []sumExt
	data    []uint64 // wordAddr<<1 | write bit, in access order
	foot    []cache.FootLine
	progSig uint64
}

// iLine is the L1I/L1D line size the recorder computes footprints
// and fetch-walk ranges at (matches machine.New's cache geometry).
const iLine = isa.ILineBytes

// progSigOf fingerprints the program content a summary's resolved
// block geometry depends on: replays of the same cached trace always
// rebuild an identical program, but a mismatch must fail safe (an
// ErrMalformed fallback) rather than apply another program's line
// ranges.
func progSigOf(prog *program.Program) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(prog.NumMethods()))
	for _, m := range prog.Methods {
		put(uint64(len(m.Blocks)))
		put(uint64(m.StaticInstrs))
		if len(m.Blocks) > 0 {
			put(m.Blocks[0].PC)
		}
	}
	return h.Sum64()
}

// summaryFor returns the trace's summary when prog is the program it
// was recorded against, and nil otherwise.
func (t *Trace) summaryFor(prog *program.Program) *summary {
	if t.sum.progSig != progSigOf(prog) {
		return nil
	}
	return t.sum
}

// opBuild accumulates one op's boundary fields and body aggregates
// before it is committed as a packed op or an ext record. The open
// block's geometry is captured by value at the boundary (blkLines is 0
// when no block is open) so the struct stays pointer-free — it is
// reset on every boundary event, and a pointer field would cost a GC
// write barrier per block on the record hot path.
type opBuild struct {
	kind uint8
	// esc precomputes the boundary-time ext conditions (method
	// identity, fetch masks, geometry overflow) so the commit fast
	// lane only re-checks the body-dependent ones.
	esc       bool
	method    int32
	blkInstrs uint32
	pcWord    uint32 // packed pc<<8|nInstrs; 0 when no block is open
	blkLines  uint64 // I-lines in the fetch walk; 0 = no open block
	blkFirst  uint64
	blkPC     uint64
	tlbMask   uint64
	missMask  uint64
	batch     uint64
	dtlb      uint32
	brWrong   uint32
}

// blkGeom is a block's geometry precomputed once per builder: the
// fetch-walk line count, the packed pc word, and whether any of it
// overflows the packed-op fields (esc forces the ext form). Programs
// are a few hundred blocks, so the table costs nothing next to the
// millions of boundary events it serves.
type blkGeom struct {
	lines  uint64
	first  uint64
	pc     uint64
	instrs uint32
	pcWord uint32 // pc<<8 | nInstrs; 0 when esc
	esc    bool
}

// clampMasks clamps recorded fetch masks to the block's line count:
// the per-line walk (ReplayFetchLines) never consults bits at or above
// nLines, so clamping keeps the bulk popcount charges identical to the
// exact walk even on hand-driven recordings. Engine-produced masks
// only ever set in-range bits, so this is the identity on real
// recordings.
func clampMasks(nLines, tlbMask, missMask uint64) (uint64, uint64) {
	if tlbMask|missMask == 0 {
		return 0, 0
	}
	if nLines < 64 {
		clamp := uint64(1)<<nLines - 1
		return tlbMask & clamp, missMask & clamp
	}
	return tlbMask, missMask
}

// shapeMemoBits sizes the recorder's direct-mapped shape memo: 1024
// slots, comfortably above the few hundred distinct shapes a suite
// recording interns, so the record hot path almost never reaches the
// map behind it.
const shapeMemoBits = 10

// shapeMemoSlot is one memo entry for shape (w, pc); idx is its table
// index plus one, so the zero slot is empty.
type shapeMemoSlot struct {
	w       uint64
	pc, idx uint32
}

// sumBuilder is the boundary/body state machine the recorder drives:
// a boundary event commits the open op via next(), body events
// accumulate into open/body, and emit() decides packed-vs-ext.
type sumBuilder struct {
	s      *summary
	prog   *program.Program
	geo    [][]blkGeom // per method, per block: precomputed geometry
	curGeo []blkGeom   // geo of the current frame's method; nil outside
	stack  []*program.Method
	cur    *program.Method
	open   opBuild
	body   []uint64 // current op's data accesses, wordAddr<<1|write
	tail   *opSeg   // the stream's last segment, the one being filled
	memo   [1 << shapeMemoBits]shapeMemoSlot
	index  map[opShape]uint32 // every interned shape's table index
}

func (b *sumBuilder) init(prog *program.Program) {
	b.s = &summary{progSig: progSigOf(prog)}
	b.prog = prog
	b.open = opBuild{kind: opSeq, method: -1}
	b.index = make(map[opShape]uint32)
	b.geo = make([][]blkGeom, prog.NumMethods())
	for i := range b.geo {
		m := prog.Method(program.MethodID(i))
		gs := make([]blkGeom, len(m.Blocks))
		for j, blk := range m.Blocks {
			g := &gs[j]
			g.lines = (blk.LastLine-blk.FirstLine)/iLine + 1
			g.first = blk.FirstLine
			g.pc = blk.PC
			g.instrs = uint32(len(blk.Instrs))
			g.esc = g.lines > opLinesMax || g.instrs > opInstrMax || g.pc > maxPackedPC
			if !g.esc {
				g.pcWord = uint32(g.pc<<8 | uint64(g.instrs))
			}
		}
		b.geo[i] = gs
	}
}

// footprintOf appends the body's distinct-line footprint — each
// line with the ordinal of its last access and the OR of its writes
// — returning false when it exceeds cache.MaxFootprint (the body
// then stays exact-only).
func (b *sumBuilder) footprintOf() (uint8, bool) {
	s := b.s
	base := len(s.foot)
	for i, d := range b.body {
		line := ((d >> 1) * 8) &^ (iLine - 1)
		write := d&1 != 0
		found := false
		for j := base; j < len(s.foot); j++ {
			if s.foot[j].Addr == line {
				s.foot[j].Ordinal = uint32(i + 1)
				if write {
					s.foot[j].Write = true
				}
				found = true
				break
			}
		}
		if found {
			continue
		}
		if len(s.foot)-base >= cache.MaxFootprint {
			s.foot = s.foot[:base]
			return 0, false
		}
		s.foot = append(s.foot, cache.FootLine{Addr: line, Ordinal: uint32(i + 1), Write: write})
	}
	return uint8(len(s.foot) - base), true
}

// addBatch accumulates a retire batch into the open op.
func (b *sumBuilder) addBatch(n uint64) { b.open.batch += n }

// intern sets memo slot m to shape (w, pc) and its table index,
// adding the shape to the table on first sight.
func (b *sumBuilder) intern(m *shapeMemoSlot, w uint64, pc uint32) {
	sh := opShape{w: w, pc: pc}
	idx, ok := b.index[sh]
	if !ok {
		idx = uint32(len(b.s.shapes))
		b.s.shapes = append(b.s.shapes, sh)
		b.index[sh] = idx
	}
	*m = shapeMemoSlot{w: w, pc: pc, idx: idx + 1}
}

// push commits one op — its interned shape and its operand — to the
// stream, starting a fresh segment when the last one is full (or none
// exists yet). Committed ops never move. The direct-mapped memo
// answers the shape lookup on the hot path; only a memo miss consults
// the map.
func (b *sumBuilder) push(w uint64, pc uint32, operand uint64) {
	m := &b.memo[((w^uint64(pc)<<40)*0x9E3779B97F4A7C15)>>(64-shapeMemoBits)]
	if m.w != w || m.pc != pc || m.idx == 0 {
		b.intern(m, w, pc)
	}
	s := b.s
	k := s.n & segMask
	if k == 0 {
		b.tail = new(opSeg)
		s.segs = append(s.segs, b.tail)
	}
	b.tail[k] = uint64(m.idx-1)<<32 | operand
	s.n++
}

// growData ensures the data table can absorb the current body,
// doubling (at least) on exhaustion.
func (b *sumBuilder) growData(need int) {
	c := 2 * cap(b.s.data)
	if c < need {
		c = need
	}
	if c < 1024 {
		c = 1024
	}
	data := make([]uint64, len(b.s.data), c)
	copy(data, b.s.data)
	b.s.data = data
}

// packedW is the shape word of the open op with its at most one data
// access (dtlb is then 0 or 1).
func (o *opBuild) packedW(nData int) uint64 {
	return uint64(o.kind) |
		o.blkLines<<opLinesShift |
		uint64(nData)*opDataBit |
		uint64(o.dtlb)<<opTLBShift |
		uint64(o.brWrong)<<opBrShift |
		o.batch<<opBatchShift
}

// emit commits the open op: packed when it has at most one data access
// that fits the operand, every field fits, and no ext-only feature
// (method identity, fetch masks) is involved; an ext record otherwise.
func (b *sumBuilder) emit() {
	s, open := b.s, &b.open
	nData := uint32(len(b.body))
	blkLines := open.blkLines
	nInstrs := open.blkInstrs
	blkPC := open.blkPC
	if blkLines == 0 {
		// No open block: the geometry fields may hold stale values
		// from the fast lanes' partial resets (they are dead while
		// blkLines is 0, but must not leak into ext records or the
		// ext decision).
		nInstrs, blkPC = 0, 0
	}
	ext := open.method >= 0 || open.tlbMask != 0 || open.missMask != 0 ||
		blkLines > opLinesMax || nData > 1 || open.dtlb > nData ||
		open.brWrong > opBrMax || open.batch > opBatchMax ||
		nInstrs > opInstrMax || blkPC > maxPackedPC ||
		(nData == 1 && b.body[0] > maxOperand)
	if !ext {
		var d uint64
		if nData == 1 {
			d = b.body[0]
		}
		var pc uint32
		if blkLines != 0 {
			pc = uint32(blkPC<<8 | uint64(nInstrs))
		}
		b.push(open.packedW(int(nData)), pc, d)
		b.body = b.body[:0]
		return
	}
	if len(s.data)+int(nData) > cap(s.data) {
		b.growData(len(s.data) + int(nData))
	}
	// fastOK only ever holds for multi-access bodies: single accesses
	// replay directly (an empty footprint would bulk-"apply"
	// vacuously, charging energy without touching the cache), and
	// footprintOf reports overflow for the rest.
	var nFoot uint8
	var fastOK bool
	if nData >= 2 {
		nFoot, fastOK = b.footprintOf()
	}
	x := sumExt{
		batch:    open.batch,
		tlbMask:  open.tlbMask,
		missMask: open.missMask,
		dataOff:  uint32(len(s.data)),
		footOff:  uint32(len(s.foot)) - uint32(nFoot),
		nData:    nData,
		nInstrs:  nInstrs,
		dtlb:     open.dtlb,
		brWrong:  open.brWrong,
		method:   open.method,
		nLines:   uint16(blkLines),
		nFoot:    nFoot,
		fastOK:   fastOK,
	}
	if blkLines != 0 {
		x.firstLine = open.blkFirst
		x.pc = open.blkPC
	}
	s.data = append(s.data, b.body...)
	b.push(uint64(open.kind)|opExtBit, 0, uint64(len(s.ext)))
	s.ext = append(s.ext, x)
	b.body = b.body[:0]
}

// fastLane reports whether the open op commits through the inline
// fast lane: no boundary-time ext condition (esc), at most one data
// access that fits the operand, and in-range counts. dtlb ≤ nData
// holds structurally (every dtlb increment is paired with a body
// append), so the lane's packed form is exactly emit's.
func (b *sumBuilder) fastLane() bool {
	o := &b.open
	return !o.esc && o.batch <= opBatchMax && o.brWrong <= opBrMax &&
		(len(b.body) == 0 || len(b.body) == 1 && b.body[0] <= maxOperand)
}

// pushFast commits the open op through the fast lane (see fastLane).
func (b *sumBuilder) pushFast() {
	n := len(b.body)
	var d uint64
	if n == 1 {
		d = b.body[0]
		b.body = b.body[:0]
	}
	b.push(b.open.packedW(n), b.open.pcWord, d)
}

// next commits the open op and opens the next one at a boundary event.
// The overwhelmingly common op — an unmasked intra-method block with at
// most one data access and in-range counts — commits through the
// inline fast lane, producing exactly emit's packed form.
func (b *sumBuilder) next(kind uint8) {
	if b.fastLane() {
		b.pushFast()
		// Partial reset: !esc guarantees method is -1 and both masks
		// are 0 already, and blkInstrs/blkFirst/blkPC are dead while
		// blkLines is 0 (setBlock rewrites them all together), so only
		// the body aggregates and the block markers need clearing.
		o := &b.open
		o.kind = kind
		o.pcWord = 0
		o.blkLines = 0
		o.batch = 0
		o.dtlb = 0
		o.brWrong = 0
		return
	}
	b.emit()
	b.open = opBuild{kind: kind, method: -1}
}

// enter opens an opEnter boundary for method id, clamping the
// recorded fetch masks to the entry block's line range.
func (b *sumBuilder) enter(id, tlbMask, missMask uint64) error {
	if id >= uint64(b.prog.NumMethods()) {
		return fmt.Errorf("%w: method %d out of range", ErrMalformed, id)
	}
	m := b.prog.Method(program.MethodID(id))
	b.stack = append(b.stack, m)
	b.cur = m
	b.curGeo = b.geo[id]
	b.next(opEnter)
	b.open.method = int32(id)
	b.setBlock(&b.curGeo[0], tlbMask, missMask)
	return nil
}

// setBlock installs a block's precomputed geometry as the open op's
// and clamps the recorded fetch masks to its line count.
func (b *sumBuilder) setBlock(g *blkGeom, tlbMask, missMask uint64) {
	o := &b.open
	o.blkLines = g.lines
	o.blkInstrs = g.instrs
	o.blkFirst = g.first
	o.blkPC = g.pc
	o.pcWord = g.pcWord
	o.tlbMask, o.missMask = clampMasks(g.lines, tlbMask, missMask)
	o.esc = o.method >= 0 || o.tlbMask|o.missMask != 0 || g.esc
}

// block opens an opBlock boundary for the current method's block idx.
// The ubiquitous case — unmasked fetch, plain geometry, a fast-lane
// op being committed — runs fused: one inline commit-and-reopen
// producing exactly what next()+setBlock would.
func (b *sumBuilder) block(idx, tlbMask, missMask uint64) error {
	if idx >= uint64(len(b.curGeo)) {
		return fmt.Errorf("%w: block %d out of range", ErrMalformed, idx)
	}
	g := &b.curGeo[idx]
	if tlbMask|missMask == 0 && !g.esc && b.fastLane() {
		b.pushFast()
		o := &b.open
		o.kind = opBlock
		o.blkLines = g.lines
		o.blkInstrs = g.instrs
		o.blkFirst = g.first
		o.blkPC = g.pc
		o.pcWord = g.pcWord
		o.batch = 0
		o.dtlb = 0
		o.brWrong = 0
		return nil
	}
	b.next(opBlock)
	b.setBlock(g, tlbMask, missMask)
	return nil
}

// exit opens an opExit boundary, popping the frame stack.
func (b *sumBuilder) exit() error {
	if len(b.stack) == 0 {
		return fmt.Errorf("%w: exit with empty frame stack", ErrMalformed)
	}
	b.stack = b.stack[:len(b.stack)-1]
	if len(b.stack) > 0 {
		b.cur = b.stack[len(b.stack)-1]
		b.curGeo = b.geo[b.cur.ID]
	} else {
		b.cur = nil
		b.curGeo = nil
	}
	b.next(opExit)
	return nil
}

// halt opens an opHalt boundary, unwinding the frame stack.
func (b *sumBuilder) halt() {
	b.stack = b.stack[:0]
	b.cur = nil
	b.curGeo = nil
	b.next(opHalt)
}

// end commits the final op and appends the end-marker op itself.
func (b *sumBuilder) end(halted bool) {
	if halted {
		b.next(opEndHalted)
	} else {
		b.next(opEndBudget)
	}
	b.emit()
}

// sumWalker replays a summary's op stream into a live environment:
// boundary actions (fetch walks, listener calls, AOS method events,
// divergence checks) happen per op in recorded order, while each op's
// body is applied as aggregates — one IssueBatch + sampler settlement
// for the body's whole retire total (exact by the batched-watermark
// argument in vm.AOS.sampleDueN), bulk D-TLB/mispredict charges
// (commutative integer constants within an instance), and a direct
// access (packed single-access bodies), the footprint fast path, or the
// exact per-access loop (ext bodies) for the data stream.
type sumWalker struct {
	s          *summary
	prog       *program.Program
	mach       *machine.Machine
	aos        *vm.AOS
	listener   func(pc uint64, instrs int)
	sampling   bool
	footOK     bool
	check      bool
	firstEnter bool
	frames     []rframe
	ids        []program.MethodID
	start      uint64
	batchSum   uint64
}

func newSumWalker(t *Trace, s *summary, env Env) *sumWalker {
	return &sumWalker{
		s:          s,
		prog:       env.Prog,
		mach:       env.Mach,
		aos:        env.AOS,
		listener:   env.BlockListener,
		sampling:   env.AOS.Params().SampleInterval != 0,
		footOK:     env.Mach.L1D.BlockBytes() == iLine,
		check:      t.truncated,
		firstEnter: true,
		frames:     make([]rframe, 0, 64),
		ids:        make([]program.MethodID, 0, 64),
		start:      env.Mach.Instructions(),
	}
}

// opBoundaryMask selects shapes the fused walk cannot fold into a
// straight-line run: every ext op, and every packed kind with bit 0
// or bit 2 set (opEnter=1, opExit=3, opHalt=4, opEndHalted=5,
// opEndBudget=6). The foldable kinds — opSeq=0 and opBlock=2 — are
// exactly the ones with both bits clear.
const opBoundaryMask = opExtBit | 0b101

// walk replays the whole op stream, one segment at a time. The end
// marker is always the stream's last op, so the walk simply runs off
// the end.
//
// Listener-free replays take the fused path, which coalesces the
// arithmetic charges of straight-line runs; replays with a block
// listener must surface every block boundary individually. A fused run
// that crosses a segment boundary flushes its bulk charges there,
// which is bit-exact because every merged charge is a sum of
// per-event constants (see walkFused).
func (w *sumWalker) walk() error {
	for si, g := range w.s.segs {
		n := min(segOps, w.s.n-si<<segShift)
		if w.listener == nil {
			if err := w.walkFused(g, n); err != nil {
				return err
			}
			continue
		}
		for j := 0; j < n; j++ {
			if err := w.applyOp(g[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkFused is walk for replays without a block listener, over the
// first n ops of segment g. Within a straight-line run (consecutive
// seq/block ops — no method boundary, no end marker) the frame stack
// is constant and every non-cache charge is a sum of per-event
// constants over independent accumulators, so the run's fetch lines,
// retire batch, recorded mispredicts, and D-TLB misses can accumulate
// in locals and flush as single bulk charges at the run boundary.
// Bit-exactness of each merged charge: integer counters add
// associatively, power meters charge via Meter.AccessRepeat (one add
// per event regardless of call granularity), and the merged sampler
// poll delivers the same samples to the same frame stack
// (vm.AOS.sampleDueN covers the contiguous retire range identically
// however it is subdivided). Data accesses still apply one at a time,
// in order — only their surrounding arithmetic is batched. Boundary
// ops flush first, then take the exact per-op path, so AOS hooks and
// reconfigurations observe the same machine state as the unfused walk.
func (w *sumWalker) walkFused(g *opSeg, n int) error {
	mach, aos, shapes := w.mach, w.aos, w.s.shapes
	ops := g[:n]
	for i := 0; i < len(ops); {
		var lines, batch, br, dtlb uint64
		j := i
		for ; j < len(ops); j++ {
			o := ops[j]
			sw := shapes[o>>32].w
			if sw&opBoundaryMask != 0 {
				break
			}
			lines += sw >> opLinesShift & opLinesMax
			if sw&opDataBit != 0 {
				dtlb += sw >> opTLBShift & 1
				mach.ReplayData(uint64(uint32(o))>>1, o&1 != 0, false)
			}
			batch += sw >> opBatchShift
			br += sw >> opBrShift & opBrMax
		}
		if lines != 0 {
			mach.ReplayFetchCharges(lines, 0)
		}
		if dtlb != 0 {
			mach.ChargeDataTLBMisses(dtlb)
		}
		if batch != 0 {
			mach.IssueBatch(batch)
			w.batchSum += batch
			if w.sampling {
				aos.ReplayBatchPoll(mach.Instructions(), batch, w.ids)
			}
		}
		if br != 0 {
			mach.ChargeMispredicts(br)
		}
		if j >= len(ops) {
			return nil
		}
		if err := w.applyOp(ops[j]); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// applyOp replays one op exactly: the boundary action in recorded
// order, then the body, retire batch with sampler poll, and
// misprediction charges.
func (w *sumWalker) applyOp(o uint64) error {
	mach, aos := w.mach, w.aos
	sh := &w.s.shapes[o>>32]
	if sh.w&opExtBit != 0 {
		return w.applyExt(sh.w&(1<<opKindBits-1), &w.s.ext[uint32(o)])
	}
	switch sh.w & (1<<opKindBits - 1) {
	case opBlock:
		if n := sh.w >> opLinesShift & opLinesMax; n != 0 {
			mach.ReplayFetchCharges(n, 0)
		}
		if w.listener != nil {
			w.listener(uint64(sh.pc>>8), int(sh.pc&opInstrMax))
		}

	case opExit:
		if err := w.exit(); err != nil {
			return err
		}

	case opHalt:
		if err := w.halt(); err != nil {
			return err
		}
	}

	if sh.w&opDataBit != 0 {
		mach.ReplayData(uint64(uint32(o))>>1, o&1 != 0, sh.w>>opTLBShift&1 != 0)
	}
	if batch := sh.w >> opBatchShift; batch != 0 {
		mach.IssueBatch(batch)
		w.batchSum += batch
		if w.sampling {
			aos.ReplayBatchPoll(mach.Instructions(), batch, w.ids)
		}
	}
	if br := sh.w >> opBrShift & opBrMax; br != 0 {
		mach.ChargeMispredicts(br)
	}
	return nil
}

// exit pops the innermost frame, like the engine's method return.
func (w *sumWalker) exit() error {
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	w.ids = w.ids[:len(w.ids)-1]
	w.aos.ReplayMethodExit(f.m.ID, w.mach.Instructions()-f.entry)
	return w.checkBoundary()
}

// halt unwinds all in-flight frames innermost-first at one
// instruction count, like vm.Engine's halt path.
func (w *sumWalker) halt() error {
	now := w.mach.Instructions()
	for j := len(w.frames) - 1; j >= 0; j-- {
		w.aos.ReplayMethodExit(w.frames[j].m.ID, now-w.frames[j].entry)
	}
	w.frames = w.frames[:0]
	w.ids = w.ids[:0]
	if w.check && now != w.start+w.batchSum {
		return ErrDiverged
	}
	return nil
}

// checkBoundary is a truncated trace's per-boundary divergence check:
// the machine must have retired exactly the replayed batches, with no
// instrumentation overhead on top.
func (w *sumWalker) checkBoundary() error {
	if w.check && w.mach.Instructions() != w.start+w.batchSum {
		return ErrDiverged
	}
	return nil
}

// applyExt replays one ext op: the boundary action (method entry with
// its fetch walk and AOS events, or a masked/overflowed block fetch),
// then the body from the ext record's full-width fields.
func (w *sumWalker) applyExt(kind uint64, x *sumExt) error {
	mach, aos := w.mach, w.aos
	switch kind {
	case opEnter:
		m := w.prog.Method(program.MethodID(x.method))
		w.frames = append(w.frames, rframe{m: m, entry: mach.Instructions()})
		w.ids = append(w.ids, m.ID)
		w.fetch(x)
		// The trace's first entry is the engine's construction-time
		// push, which ran before the run wiring installed the block
		// listener — so it performs its machine effects but does not
		// fire the listener, exactly like direct execution.
		if w.listener != nil && !w.firstEnter {
			w.listener(x.pc, int(x.nInstrs))
		}
		w.firstEnter = false
		aos.ReplayMethodEnter(m.ID)
		if err := w.checkBoundary(); err != nil {
			return err
		}

	case opBlock:
		w.fetch(x)
		if w.listener != nil {
			w.listener(x.pc, int(x.nInstrs))
		}

	case opExit:
		if err := w.exit(); err != nil {
			return err
		}

	case opHalt:
		if err := w.halt(); err != nil {
			return err
		}
	}

	if x.nData > 0 {
		applied := false
		if x.fastOK && w.footOK {
			foot := w.s.foot[x.footOff : x.footOff+uint32(x.nFoot)]
			applied = mach.TryReplayDataFootprint(foot, uint64(x.nData), uint64(x.dtlb))
		}
		if !applied {
			for _, d := range w.s.data[x.dataOff : x.dataOff+x.nData] {
				mach.ReplayData(d>>1, d&1 != 0, false)
			}
			if x.dtlb != 0 {
				mach.ChargeDataTLBMisses(uint64(x.dtlb))
			}
		}
	}
	if x.batch > 0 {
		mach.IssueBatch(x.batch)
		w.batchSum += x.batch
		if w.sampling {
			aos.ReplayBatchPoll(mach.Instructions(), x.batch, w.ids)
		}
	}
	if x.brWrong > 0 {
		mach.ChargeMispredicts(uint64(x.brWrong))
	}
	return nil
}

// fetch applies an ext op's recorded fetch walk: pure bulk charges
// when no line missed the L1I, the per-line walk (with its live L2
// traffic) otherwise.
func (w *sumWalker) fetch(x *sumExt) {
	if x.missMask == 0 {
		w.mach.ReplayFetchCharges(uint64(x.nLines), uint64(bits.OnesCount64(x.tlbMask)))
		return
	}
	last := x.firstLine + uint64(x.nLines-1)*iLine
	w.mach.ReplayFetchLines(x.firstLine, last, x.tlbMask, x.missMask)
}
