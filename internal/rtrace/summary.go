// Summarized-block replay: the recorder folds every block instance's
// body events (data accesses, retire batches, branch verdicts, D-TLB
// outcomes) into one pre-aggregated op. Replays walk that op stream:
// single-access bodies (the overwhelming case in the suite's workloads)
// join their run's batch of data accesses, and multi-access bodies
// replay their access list in order.
//
// Replay cost is meant to scale with the trace's data accesses, the
// live cache simulation that is the real work, and not with its op or
// instruction count: the suite's traces record millions of ops, the
// replay loop is memory-bound, and a candidate search replays one trace
// dozens of times. So the recording is stored as three streams, each
// read only by the walk that needs it, and both op-level streams are
// run-length encoded, because both are almost all repetition:
//
//   - The shape stream: one group per stretch of consecutive ops of one
//     shape, its index into a per-trace table of interned op shapes (the
//     op's kind and body counts, plus its block's pc) and its op count,
//     2 bytes each. A loop's blocks repeat a few hundred shapes millions
//     of times, and a one-block loop is one group. The table stays in
//     L1; it is capped at 65 536 shapes, and a recording that needs
//     more fails Finish and runs directly. A boundary op is always a
//     group of its own, so runs never share a group, and a group longer
//     than 65 535 ops splits. Only replays with a block listener (the
//     BBV and WSS schemes' accumulators, the telemetry sampler) read
//     it: they count a run's block ops a group at a time and hand the
//     counts to the listener in bulk, and walk op by op only the runs in
//     which the listener's next interval bound (vm.BlockListener's Due)
//     falls.
//   - The operand stream: one entry per stretch of consecutive packed
//     data accesses to one data block within a run (a word walk over a
//     block is one entry), an operand of two bytes and a one-byte count
//     in a parallel list. The operand is the block's index as an
//     isa.DBlockBytes block, shifted left once, with the ORed write
//     flags of the stretch's accesses in bit 0. Every data cache a
//     replay drives indexes at that block size or a coarser one, and
//     the D-TLB outcome is recorded in the shape, so the word within the
//     block is never needed. A stretch longer than 255 accesses splits.
//     The boundary op's own access is an entry of its own. A block
//     index past 15 bits (data beyond 2 MB) makes the op an ext record,
//     which keeps the full address.
//   - Runs: the recorder folds each straight-line stretch of foldable
//     ops (opSeq/opBlock, packed) into one record as it goes — retire
//     batch, mispredicts, D-TLB misses, data accesses and the entries
//     that hold them — closed by the next boundary op, whose shape
//     index the run keeps. Every replay walks runs: the run's data
//     entries in order, three bulk charges, then the boundary op. A
//     run's entries are contiguous in the operand stream, so each slice
//     of them goes through the L1D model in one loop, one probe per
//     entry (machine.ReplayDataWords): one L1D meter charge per slice,
//     and only misses leave the loop for the L2.
//
// Folding a stretch into one entry is exact. Its accesses hit one
// block back to back, so after the first access the block is the
// cache's most recently used, and every later access of the stretch
// hits it: one probe finds it, and the stretch's stats and LRU ticks
// follow from the count. Setting the dirty bit at the first access
// instead of at the first write can show only through that block's
// eviction or a resize's writebacks. No access in between can evict
// it, and a resize (a BBV boundary can fall between two ops of a run)
// keeps the most recently used block of every set, so it keeps this
// one, dirty or not. Nothing else reads dirty bits: machine.Snapshot
// reads no cache state, and the telemetry sampler reads only cache
// stats.
//
// Every stream and table but the shape table is a seq, a list of
// fixed-size segments, so the recorder appends a fresh segment when the
// current one fills and never copies: a trace carries at most one
// partly filled segment of slack per list, and no recording needs its
// length known up front. The common case (an intra-method block entry
// with a short retire batch and at most one data access whose block
// fits the operand) packs into its shape; everything rare — method
// entries, masked fetch walks, multi-access bodies, wide block indices
// or counts — overflows into a fat side table of ext records, with
// their accesses in a flat data table. An ext op carries no operand:
// every ext op closes a run, and every walk applies each run's boundary
// op exactly once in stream order, so ext records and their accesses
// are read by position.
package rtrace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

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
// and it has no operand (ext records are read by position).
const (
	opKindBits = 3
	opExtBit   = 1 << 3

	opDataBit    = 1 << 4 // the body's single data access is the operand
	opTLBShift   = 5      // 1 bit: ... and it missed the D-TLB
	opBrShift    = 6      // 8 bits: body branch mispredictions
	opBatchShift = 14     // 19 bits: body retired-instruction total

	opBrMax    = 1<<8 - 1
	opBatchMax = 1<<19 - 1
	opInstrMax = 1<<8 - 1 // block instr count packable into the pc word

	// maxPackedPC bounds the block-start pc packable into the 32-bit
	// pc word alongside the 8-bit instr count; blocks beyond it (no
	// suite program comes near) are stored as ext records, which carry
	// the full-width pc.
	maxPackedPC = 1<<24 - 1

	// blockWordShift takes a word address to its data block's index.
	blockWordShift = isa.DBlockShift - isa.WordShift
	// maxOperand bounds a packed op's data access (a body access,
	// wordAddr<<1 | write): its block index must fit the 15 bits an
	// operand-stream entry leaves beside the write flag.
	maxOperand = 1<<(15+blockWordShift+1) - 1
)

// blockOperand returns the operand of a body access (wordAddr<<1 |
// write) within maxOperand: its data block's index shifted left once,
// the write flag in bit 0.
func blockOperand(d uint64) uint16 {
	return uint16(d>>(blockWordShift+1)<<1 | d&1)
}

// opShape is one distinct packed op: w holds the kind and the
// bit-fields above, pc the block's pc<<8 | nInstrs (0 when no block is
// open; listener replays only). Ext ops share one shape per kind.
type opShape struct {
	w  uint64
	pc uint32
}

// maxShapes caps a trace's shape table at what a group's shape index
// can hold.
const maxShapes = 1 << 16

// shapeGroup is one shape-stream entry: n consecutive ops (1 to
// maxGroup) of shape index shape.
type shapeGroup struct{ shape, n uint16 }

// Run-length caps: the longest group, and the most accesses one
// operand-stream entry counts.
const (
	maxGroup = 1<<16 - 1
	maxCount = 1<<8 - 1
)

// segLayout holds a summary's segment sizes, as seq shifts. The
// operand stream's operands and counts share one shift, so an entry's
// two halves sit at the same position of their lists' segments.
type segLayout struct{ groups, opnds, runs, ext, data uint }

// prodLayout is every recording's layout: 128 KiB segments for the
// group stream and the operands (64 KiB for the counts beside them),
// and a few hundred KiB at most of slack over all the lists.
var prodLayout = segLayout{
	groups: 15, // 4 bytes each
	opnds:  16, // 2 + 1 bytes each
	runs:   12, // 40 bytes each
	ext:    10, // 64 bytes each
	data:   12, // 8 bytes each
}

// sumRun is one run: the folded charges of a straight-line stretch of
// foldable ops, and the shape of the boundary op that closes it. Its
// data accesses are the next nEnt entries of the operand stream,
// followed by the boundary op's own entry when its shape has one. The
// charge counts are full-width so no run length can overflow them;
// nEnt fits the struct's padding, and a run of 2^32 entries would
// outgrow summaryMaxMemBytes many times over, so Finish rejects any
// trace a wrapped count could corrupt.
type sumRun struct {
	batch uint64 // retired instructions
	nData uint64 // single data accesses
	dtlb  uint64 // recorded D-TLB misses among them
	br    uint64 // recorded branch mispredictions
	shape uint16 // the boundary op's shape index
	nEnt  uint32 // operand-stream entries holding the nData accesses
}

// sumExt is the unpacked form of a rare op: method entries (which need
// the method ID), masked fetch walks (which need the line range and
// the recorded I-TLB/L1I outcome masks), and bodies whose counts
// overflow the packed fields, and every body with two or more data
// accesses or an access too wide for the operand. Its accesses are the
// next nData entries of summary.data.
type sumExt struct {
	firstLine uint64 // opEnter/opBlock: first I-line byte address
	pc        uint64 // opEnter/opBlock: block's first-instruction index
	batch     uint64 // body: total retired instructions
	tlbMask   uint64 // fetch walk: recorded I-TLB miss mask
	missMask  uint64 // fetch walk: recorded L1I miss mask
	nData     uint32 // body: data access count
	nInstrs   uint32 // opEnter/opBlock: block instruction count
	dtlb      uint32 // body: recorded D-TLB misses
	brWrong   uint32 // body: recorded branch mispredictions
	method    int32  // opEnter: method ID; -1 otherwise
	nLines    uint16 // opEnter/opBlock: I-lines in the fetch walk
}

// summary is a recording resolved against its program: the group
// (shape) stream, the operand stream's operands and counts, the runs,
// the shape table every group indexes, the ext records of the rare ops
// in op order, and the flat data-access table of their bodies.
// Immutable once Finish seals it, and shared by every concurrent
// replay of the trace.
type summary struct {
	groups  seq[shapeGroup] // the shape stream, run-length encoded
	opnds   seq[uint16]     // each operand-stream entry's operand (blockOperand)
	counts  seq[uint8]      // each entry's access count, beside its operand
	runs    seq[sumRun]
	shapes  []opShape
	ext     seq[sumExt]
	data    seq[uint64] // ext accesses: wordAddr<<1 | write bit, in access order
	progSig uint64
}

// iLine is the L1I line size the recorder computes fetch-walk ranges at
// (matches machine.New's cache geometry).
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
// accumulate into open/body, emit() decides packed-vs-ext, and push()
// appends the op to the streams and folds it into the open run.
type sumBuilder struct {
	s      *summary
	prog   *program.Program
	geo    [][]blkGeom // per method, per block: precomputed geometry
	curGeo []blkGeom   // geo of the current frame's method; nil outside
	stack  []*program.Method
	cur    *program.Method
	open   opBuild
	body   []uint64 // current op's data accesses, wordAddr<<1|write
	run    sumRun   // the open run (shape unset until it closes)
	grp    uint32   // shape index of the open group; noGroup after a boundary op
	memo   [1 << shapeMemoBits]shapeMemoSlot
	index  map[opShape]uint32 // every interned shape's table index
	err    error              // shape table overflow; fails Finish
}

// noGroup marks the builder's open group as closed: no shape index
// equals it.
const noGroup = maxShapes

func (b *sumBuilder) init(prog *program.Program, lay segLayout) {
	b.s = &summary{
		groups:  newSeq[shapeGroup](lay.groups),
		opnds:   newSeq[uint16](lay.opnds),
		counts:  newSeq[uint8](lay.opnds),
		runs:    newSeq[sumRun](lay.runs),
		ext:     newSeq[sumExt](lay.ext),
		data:    newSeq[uint64](lay.data),
		progSig: progSigOf(prog),
	}
	b.prog = prog
	b.grp = noGroup
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
			g.esc = g.instrs > opInstrMax || g.pc > maxPackedPC
			if !g.esc {
				g.pcWord = uint32(g.pc<<8 | uint64(g.instrs))
			}
		}
		b.geo[i] = gs
	}
}

// addBatch accumulates a retire batch into the open op.
func (b *sumBuilder) addBatch(n uint64) { b.open.batch += n }

// errShapeOverflow rejects a recording with more distinct op shapes
// than a shape-stream entry can index.
var errShapeOverflow = fmt.Errorf("%w: more than %d distinct op shapes", ErrMalformed, maxShapes)

// intern sets memo slot m to shape (w, pc) and its table index,
// adding the shape to the table on first sight. A full table poisons
// the recording (b.err) and reports false.
func (b *sumBuilder) intern(m *shapeMemoSlot, w uint64, pc uint32) bool {
	sh := opShape{w: w, pc: pc}
	idx, ok := b.index[sh]
	if !ok {
		if len(b.s.shapes) == maxShapes {
			b.err = errShapeOverflow
			return false
		}
		idx = uint32(len(b.s.shapes))
		b.s.shapes = append(b.s.shapes, sh)
		b.index[sh] = idx
	}
	*m = shapeMemoSlot{w: w, pc: pc, idx: idx + 1}
	return true
}

// push commits one op: its interned shape index to the shape stream,
// its operand (when the shape has the data bit) to the operand stream,
// and its charges to the open run: a foldable op folds into the run, a
// boundary op closes it. A foldable op of the open group's shape adds
// one to that group, and a foldable op's access in the block of the
// run's last entry adds one to that entry and ORs in its write flag; a
// boundary op is a group of its own, and its access an entry of its
// own. The direct-mapped memo answers the shape lookup on the hot
// path; only a memo miss consults the map.
func (b *sumBuilder) push(w uint64, pc uint32, operand uint16) {
	m := &b.memo[((w^uint64(pc)<<40)*0x9E3779B97F4A7C15)>>(64-shapeMemoBits)]
	if (m.w != w || m.pc != pc || m.idx == 0) && !b.intern(m, w, pc) {
		return
	}
	idx := uint16(m.idx - 1)
	s := b.s
	r := &b.run
	if w&opBoundaryMask != 0 {
		s.groups.add(shapeGroup{shape: idx, n: 1})
		b.grp = noGroup
		if w&opDataBit != 0 {
			s.opnds.add(operand)
			s.counts.add(1)
		}
		r.shape = idx
		s.runs.add(*r)
		*r = sumRun{}
		return
	}
	if uint32(idx) == b.grp && s.groups.last().n < maxGroup {
		s.groups.last().n++
	} else {
		s.groups.add(shapeGroup{shape: idx, n: 1})
		b.grp = uint32(idx)
	}
	r.batch += w >> opBatchShift
	r.br += w >> opBrShift & opBrMax
	if w&opDataBit == 0 {
		return
	}
	r.nData++
	r.dtlb += w >> opTLBShift & 1
	if r.nEnt != 0 {
		if o, k := s.opnds.last(), s.counts.last(); *o>>1 == operand>>1 && *k < maxCount {
			*o |= operand
			*k++
			return
		}
	}
	s.opnds.add(operand)
	s.counts.add(1)
	r.nEnt++
}

// packedW is the shape word of the open op with its at most one data
// access (dtlb is then 0 or 1).
func (o *opBuild) packedW(nData int) uint64 {
	return uint64(o.kind) |
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
		nData > 1 || open.dtlb > nData ||
		open.brWrong > opBrMax || open.batch > opBatchMax ||
		nInstrs > opInstrMax || blkPC > maxPackedPC ||
		(nData == 1 && b.body[0] > maxOperand)
	if !ext {
		var d uint16
		if nData == 1 {
			d = blockOperand(b.body[0])
		}
		var pc uint32
		if blkLines != 0 {
			pc = uint32(blkPC<<8 | uint64(nInstrs))
		}
		b.push(open.packedW(int(nData)), pc, d)
		b.body = b.body[:0]
		return
	}
	x := sumExt{
		batch:    open.batch,
		tlbMask:  open.tlbMask,
		missMask: open.missMask,
		nData:    nData,
		nInstrs:  nInstrs,
		dtlb:     open.dtlb,
		brWrong:  open.brWrong,
		method:   open.method,
		nLines:   uint16(blkLines),
	}
	if blkLines != 0 {
		x.firstLine = open.blkFirst
		x.pc = open.blkPC
	}
	for _, d := range b.body {
		s.data.add(d)
	}
	b.push(uint64(open.kind)|opExtBit, 0, 0)
	s.ext.add(x)
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
	var d uint16
	if n == 1 {
		d = blockOperand(b.body[0])
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
// access (packed single-access bodies) or the per-access loop (ext
// bodies) for the data stream.
type sumWalker struct {
	s          *summary
	prog       *program.Program
	mach       *machine.Machine
	aos        *vm.AOS
	listener   vm.BlockListener
	sampling   bool
	check      bool
	firstEnter bool
	frames     []rframe
	ids        []program.MethodID
	start      uint64
	batchSum   uint64
	ext        cursor[sumExt] // the next ext op's record
	data       cursor[uint64] // the next ext access

	// With a listener: its Due as of the last entry that reached it,
	// the block entries folded since the last flush by shape index, and
	// the shape indices whose count is nonzero.
	due     uint64
	counts  []uint64
	pending []uint16
}

func newSumWalker(t *Trace, s *summary, env Env) *sumWalker {
	w := &sumWalker{
		s:          s,
		prog:       env.Prog,
		mach:       env.Mach,
		aos:        env.AOS,
		listener:   env.BlockListener,
		sampling:   env.AOS.Params().SampleInterval != 0,
		check:      t.truncated,
		firstEnter: true,
		frames:     make([]rframe, 0, 64),
		ids:        make([]program.MethodID, 0, 64),
		start:      env.Mach.Instructions(),
		ext:        s.ext.cursor(),
		data:       s.data.cursor(),
	}
	if w.listener != nil {
		w.due = w.listener.Due()
		w.counts = make([]uint64, len(s.shapes))
	}
	return w
}

// opBoundaryMask selects shapes that close a run: every ext op, and
// every packed kind with bit 0 or bit 2 set (opEnter=1, opExit=3,
// opHalt=4, opEndHalted=5, opEndBudget=6). The foldable kinds — opSeq=0
// and opBlock=2 — are exactly the ones with both bits clear.
const opBoundaryMask = opExtBit | 0b101

// groupCursor is the next group's place in the shape stream: segment
// si, offset k.
type groupCursor struct{ si, k int }

// entryCursor reads the operand stream's entries: its operand and
// count lists share a segment size, so their cursors move in lockstep.
type entryCursor struct {
	opnds  cursor[uint16]
	counts cursor[uint8]
}

// take returns the next at most n (n > 0) entries' operands and
// counts, stopping at the end of the current segment.
func (c *entryCursor) take(n uint64) ([]uint16, []uint8) {
	return c.opnds.take(n), c.counts.take(n)
}

// next returns the next entry's operand and count.
func (c *entryCursor) next() (uint16, uint8) {
	return *c.opnds.next(), *c.counts.next()
}

// walk replays the whole recording one run at a time. The end marker
// always closes the last run (and is the shape stream's last group), so
// the walk simply runs off the end.
//
// Within a run (consecutive seq/block ops — no method boundary, no end
// marker) the frame stack is constant and every non-cache charge is a
// sum of per-event constants over independent accumulators, so the
// recorder has already folded the run's retire batch, recorded
// mispredicts, and D-TLB misses into single bulk charges (its block
// entries' fetch walks hit the I-TLB and the L1I, which charges no
// cycles, and the L1I has no energy meter, so they charge nothing).
// Bit-exactness of each merged charge: integer counters add
// associatively, power meters charge via Meter.AccessRepeat (bit-exact
// with one add per event regardless of call granularity), and the
// merged sampler poll delivers the same samples to the same frame
// stack (vm.AOS.sampleDueN covers the contiguous retire range
// identically however it is subdivided). Data accesses apply in
// order, each exactly as one access would (an entry as its count of
// accesses; see the package comment); a run's entries go to
// machine.ReplayDataWords in one call per operand segment.
// The boundary op then takes the exact per-op path, so AOS hooks and
// reconfigurations observe the same machine state as an op-by-op walk.
// Every ext op is a boundary op, and every walk applies each boundary
// op exactly once, in stream order, so the walker reads ext records
// and their accesses through cursors.
//
// A block listener sees the run's block entries at instruction counts
// below the run's end, and below the listener's Due an entry only
// accumulates and commutes with every other (vm.BlockListener). So a
// run that ends below Due applies in bulk too, and its block ops are
// only counted by shape a group at a time (fold) and handed over later
// through Accumulate (flush): before the first entry that reaches Due,
// and at the end of the walk. A run that reaches Due walks op by op
// (exactRun). A listener whose Due is 0 makes every run exact; that is
// the reference walk. Without a listener the shape stream is never
// read.
func (w *sumWalker) walk() error {
	cur := entryCursor{w.s.opnds.cursor(), w.s.counts.cursor()}
	var gc groupCursor
	for ri := range w.s.runs.segs {
		runs := w.s.runs.seg(ri)
		for i := range runs {
			if err := w.run(&runs[i], &gc, &cur); err != nil {
				return err
			}
		}
	}
	if w.listener != nil {
		w.flush()
	}
	return nil
}

// run replays run r, whose groups start at c in the shape stream and
// whose entries start at cur.
func (w *sumWalker) run(r *sumRun, c *groupCursor, cur *entryCursor) error {
	mach, aos := w.mach, w.aos
	if w.listener != nil {
		if mach.Instructions()+r.batch >= w.due {
			return w.exactRun(c, cur)
		}
		w.fold(c)
	}
	for n := uint64(r.nEnt); n > 0; {
		ds, ks := cur.take(n)
		mach.ReplayDataWords(ds, ks)
		n -= uint64(len(ds))
	}
	if r.dtlb != 0 {
		mach.ChargeDataTLBMisses(r.dtlb)
	}
	if r.batch != 0 {
		mach.IssueBatch(r.batch)
		w.batchSum += r.batch
		if w.sampling {
			aos.ReplayBatchPoll(mach.Instructions(), r.batch, w.ids)
		}
	}
	if r.br != 0 {
		mach.ChargeMispredicts(r.br)
	}
	sh := &w.s.shapes[r.shape]
	var o uint16
	if sh.w&opDataBit != 0 {
		o, _ = cur.next()
	}
	return w.applyOp(sh, o)
}

// fold counts the foldable ops of the run at c by shape index, a group
// at a time, and steps c past the boundary op's group, which closes
// the run.
func (w *sumWalker) fold(c *groupCursor) {
	shapes := w.s.shapes
	for ; ; c.si, c.k = c.si+1, 0 {
		for j, g := range w.s.groups.segs[c.si][c.k:] {
			if shapes[g.shape].w&opBoundaryMask != 0 {
				c.k += j + 1
				return
			}
			w.count(g.shape, uint64(g.n))
		}
	}
}

// count adds n entries of shape idx to the pending counts.
func (w *sumWalker) count(idx uint16, n uint64) {
	if w.counts[idx] == 0 {
		w.pending = append(w.pending, idx)
	}
	w.counts[idx] += n
}

// flush hands the folded block entries to the listener, one
// Accumulate per block shape, and clears the counts.
func (w *sumWalker) flush() {
	for _, idx := range w.pending {
		if sh := &w.s.shapes[idx]; sh.w&(1<<opKindBits-1) == opBlock {
			w.listener.Accumulate(uint64(sh.pc>>8), int(sh.pc&opInstrMax), w.counts[idx])
		}
		w.counts[idx] = 0
	}
	w.pending = w.pending[:0]
}

// exactRun applies every op of the run at c in order, the boundary op
// last, each data op taking one access of the entry at cur (and the
// next entry once the current one is used up).
func (w *sumWalker) exactRun(c *groupCursor, cur *entryCursor) error {
	shapes := w.s.shapes
	var o uint16
	var left uint8 // accesses of entry o not yet applied
	for {
		seg := w.s.groups.segs[c.si]
		if c.k == len(seg) {
			c.si, c.k = c.si+1, 0
			seg = w.s.groups.segs[c.si]
		}
		g := seg[c.k]
		c.k++
		sh := &shapes[g.shape]
		for range g.n {
			if sh.w&opDataBit != 0 {
				if left == 0 {
					o, left = cur.next()
				}
				left--
			}
			if err := w.applyOp(sh, o); err != nil {
				return err
			}
		}
		if sh.w&opBoundaryMask != 0 {
			return nil
		}
	}
}

// onBlock reports one block entry to the listener. An entry that
// reaches Due first flushes the folded entries, so the listener sees
// every earlier entry before it acts, and then reads the new Due.
func (w *sumWalker) onBlock(pc uint64, instrs int) {
	if w.mach.Instructions() < w.due {
		w.listener.OnBlock(pc, instrs)
		return
	}
	w.flush()
	w.listener.OnBlock(pc, instrs)
	w.due = w.listener.Due()
}

// applyOp replays one op exactly — shape sh with operand o (0 when the
// shape has none): the boundary action in recorded order, then the
// body, retire batch with sampler poll, and misprediction charges. An
// ext op replays the next ext record.
func (w *sumWalker) applyOp(sh *opShape, o uint16) error {
	mach, aos := w.mach, w.aos
	if sh.w&opExtBit != 0 {
		return w.applyExt(sh.w&(1<<opKindBits-1), w.ext.next())
	}
	switch sh.w & (1<<opKindBits - 1) {
	case opBlock:
		if w.listener != nil {
			w.onBlock(uint64(sh.pc>>8), int(sh.pc&opInstrMax))
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
		mach.ReplayData(uint64(o>>1)<<blockWordShift, o&1 != 0)
		if sh.w>>opTLBShift&1 != 0 {
			mach.ChargeDataTLBMisses(1)
		}
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
			w.onBlock(x.pc, int(x.nInstrs))
		}
		w.firstEnter = false
		aos.ReplayMethodEnter(m.ID)
		if err := w.checkBoundary(); err != nil {
			return err
		}

	case opBlock:
		w.fetch(x)
		if w.listener != nil {
			w.onBlock(x.pc, int(x.nInstrs))
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

	for n := uint64(x.nData); n > 0; {
		ds := w.data.take(n)
		for _, d := range ds {
			mach.ReplayData(d>>1, d&1 != 0)
		}
		n -= uint64(len(ds))
	}
	if x.dtlb != 0 {
		mach.ChargeDataTLBMisses(uint64(x.dtlb))
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
		w.mach.ReplayFetchCharges(uint64(bits.OnesCount64(x.tlbMask)))
		return
	}
	last := x.firstLine + uint64(x.nLines-1)*iLine
	w.mach.ReplayFetchLines(x.firstLine, last, x.tlbMask, x.missMask)
}
