// Summarized-block replay: a sealed trace is decoded exactly once
// into an op stream in which every block instance's body events
// (data accesses, retire batches, branch verdicts, D-TLB outcomes)
// are pre-aggregated, together with the instance's distinct-line data
// footprint. Replays then walk the decoded stream instead of the byte
// encoding: single-access bodies (the overwhelming case in the suite's
// workloads) apply as one direct data access, multi-access bodies
// whose footprint is fully resident in the live L1D apply as one bulk
// arithmetic update — stats, LRU ticks, dirty bits, energy, and
// stalls land exactly where the per-access path puts them (see
// cache.TryApplyFootprint) — and everything else falls back to the
// exact per-access path. The original byte-decoding loop survives as
// Trace.ReplayExact, the differential oracle every summarized result
// is tested against.
//
// The op stream is deliberately tiny — 16 bytes per op — because the
// replay loop is memory-bound: the suite's traces decode to millions
// of ops, so every extra op byte is a byte of DRAM traffic on every
// replay. It is stored as a list of fixed-size segments (opSeg), so
// the recorder appends a fresh segment when the current one fills and
// never copies: a trace carries at most one partly filled segment of
// slack, and no recording needs its length known up front. The common
// case (an intra-method block entry with a short retire batch and at
// most one data access) packs into one word of bit-fields plus one
// word holding the access itself; everything rare — method entries,
// masked fetch walks, wide bodies — overflows into a fat side table
// consulted only when an op's ext bit is set.
package rtrace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"

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

// Packed-op bit layout of sumOp.w. Any op whose fields do not fit
// (and every opEnter or masked fetch) is stored as an ext record
// instead, with opExtBit set and sumOp.d holding the summary.ext
// index.
const (
	opKindBits = 3
	opExtBit   = 1 << 3
	opFastBit  = 1 << 4

	opLinesShift = 5  // 6 bits: I-lines in the fetch walk
	opFootShift  = 11 // 6 bits: footprint length (multi-access bodies)
	opDataShift  = 17 // 10 bits: body data-access count
	opTLBShift   = 27 // 10 bits: body D-TLB miss count
	opBrShift    = 37 // 8 bits: body branch mispredictions
	opBatchShift = 45 // 19 bits: body retired-instruction total

	opLinesMax = 1<<6 - 1
	opFootMax  = 1<<6 - 1
	opDataMax  = 1<<10 - 1
	opTLBMax   = 1<<10 - 1
	opBrMax    = 1<<8 - 1
	opBatchMax = 1<<19 - 1
	opInstrMax = 1<<8 - 1 // block instr count packable into the pc stream

	// maxPackedPC bounds the block-start pc packable into the 32-bit
	// pc stream alongside the 8-bit instr count; blocks beyond it (no
	// suite program comes near) are stored as ext records, which carry
	// the full-width pc.
	maxPackedPC = 1<<24 - 1
)

// sumOp is one boundary event plus its aggregated body, packed into 16
// bytes. w holds the kind and the bit-fields above; d holds the body's
// single data access (wordAddr<<1 | write) when nData==1, the packed
// dataOff|footOff<<32 table offsets when nData>=2, or the ext-table
// index when opExtBit is set.
type sumOp struct {
	w uint64
	d uint64
}

// Op-stream segmentation: segOps ops (1 MiB of ops plus 256 KiB of
// pcs) per segment. Op i lives at offset i&segMask of segment
// i>>segShift.
const (
	segShift = 16
	segOps   = 1 << segShift
	segMask  = segOps - 1
)

// opSeg is one fixed-size segment of the op stream and its parallel pc
// stream (pcs[k] is pc<<8 | nInstrs for a packed block op, used by
// listener replays only). Every segment of a summary but the last is
// full.
type opSeg struct {
	ops [segOps]sumOp
	pcs [segOps]uint32
}

// sumExt is the unpacked form of a rare op: method entries (which need
// the method ID), masked fetch walks (which need the line range and
// the recorded I-TLB/L1I outcome masks), and bodies whose counts
// overflow the packed fields.
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

// summary is a trace decoded once against a program: the packed op
// stream, the side tables rare ops and listener replays index into,
// and the flat data-access and footprint tables for multi-access
// bodies. Immutable after construction and shared by every concurrent
// replay of the trace.
type summary struct {
	segs    []*opSeg
	n       int // ops in the stream, across segs
	ext     []sumExt
	data    []uint64 // wordAddr<<1 | write bit, in access order
	foot    []cache.FootLine
	err     error // non-nil: the byte stream is malformed
	retired uint64
	progSig uint64
}

// seg locates op i of the stream: its segment and the offset within.
func (s *summary) seg(i int) (*opSeg, int) {
	return s.segs[i>>segShift], i & segMask
}

// totalBatch is the summary's retired-instruction grand total,
// saturating on overflow (fuzz-harness helper: hostile uvarint batches
// can encode near-2^64 totals). The builder accumulates it at decode
// time rather than summing committed ops, so it also counts batches in
// an open op a malformed tail never commits — exactly the batches the
// streaming exact replay issues before it hits the bad tail.
func (s *summary) totalBatch() uint64 {
	return s.retired
}

// sumState hangs the lazily built summary off a Trace behind a
// pointer, so sealed Trace values stay copyable.
type sumState struct {
	mu    sync.Mutex
	built bool
	sum   *summary
}

// summaryMaxTraceBytes bounds the traces that get summarized: the
// decoded op stream costs roughly 6× the encoded bytes, so very large
// recordings keep the byte-replay path instead of ballooning memory.
const summaryMaxTraceBytes = 96 << 20

// iLine is the L1I/L1D line size the summarizer computes footprints
// and fetch-walk ranges at (matches machine.New's cache geometry).
const iLine = isa.ILineBytes

// progSigOf fingerprints the program content a summary's resolved
// block geometry depends on: replays of the same cached trace always
// rebuild an identical program, but a mismatch must fail safe (byte
// replay) rather than apply another program's line ranges.
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

// summaryFor returns the trace's summary resolved against prog,
// building it on first use (guarded by the trace's state lock). It
// returns nil when the trace is too large to summarize, when the
// trace was hand-built without summary state (tests), or when prog
// does not match the program the cached summary was resolved against
// — callers must use ReplayExact then.
func (t *Trace) summaryFor(prog *program.Program) *summary {
	st := t.sumState
	if st == nil {
		return nil
	}
	st.mu.Lock()
	if !st.built {
		st.built = true
		if t.size <= summaryMaxTraceBytes {
			st.sum = summarize(t, prog)
		}
	}
	s := st.sum
	st.mu.Unlock()
	if s != nil && s.progSig != progSigOf(prog) {
		return nil
	}
	return s
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
// exact walk even on hostile hand-built traces. Engine-produced masks
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

// sumBuilder is the single construction path for summaries: the same
// boundary/body state machine is fed either by the decode-once
// summarizer (summarize, walking the byte stream) or by the direct
// recorder (SummaryRecorder, driven straight from the engine's event
// callbacks). Sharing the machine is what makes the two paths
// structurally incapable of drifting apart: a boundary event commits
// the open op via next(), body events accumulate into open/body, and
// emit() decides packed-vs-ext identically regardless of who called.
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
}

func (b *sumBuilder) init(prog *program.Program) {
	b.s = &summary{progSig: progSigOf(prog)}
	b.prog = prog
	b.open = opBuild{kind: opSeq, method: -1}
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

// addBatch accumulates a retire batch into the open op and the
// summary's saturating grand total. Both construction paths route
// batches through here so totalBatch covers even an op the stream
// never commits.
func (b *sumBuilder) addBatch(n uint64) {
	b.open.batch += n
	if b.s.retired+n < b.s.retired {
		b.s.retired = ^uint64(0)
	} else {
		b.s.retired += n
	}
}

// push commits one op and its pc word to the stream, starting a fresh
// segment when the last one is full (or none exists yet). Committed
// ops never move.
func (b *sumBuilder) push(w, d uint64, pc uint32) {
	s := b.s
	k := s.n & segMask
	if k == 0 {
		b.tail = new(opSeg)
		s.segs = append(s.segs, b.tail)
	}
	b.tail.ops[k] = sumOp{w: w, d: d}
	b.tail.pcs[k] = pc
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

// emit commits the open op: packed when every field fits and no
// ext-only feature (method identity, fetch masks) is involved, an
// ext record otherwise.
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
	if len(s.data)+int(nData) > cap(s.data) {
		b.growData(len(s.data) + int(nData))
	}
	// fastOK only ever holds for multi-access bodies: single
	// accesses replay directly (an empty footprint would bulk-
	// "apply" vacuously, charging energy without touching the
	// cache), and footprintOf reports overflow for the rest.
	var nFoot uint8
	var fastOK bool
	if nData >= 2 {
		nFoot, fastOK = b.footprintOf()
	}
	ext := open.method >= 0 || open.tlbMask != 0 || open.missMask != 0 ||
		blkLines > opLinesMax || nData > opDataMax ||
		open.dtlb > opTLBMax || open.brWrong > opBrMax ||
		open.batch > opBatchMax || nInstrs > opInstrMax ||
		blkPC > maxPackedPC ||
		(nData == 1 && open.dtlb > 1)
	if ext {
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
		b.push(uint64(open.kind)|opExtBit, uint64(len(s.ext)), 0)
		s.ext = append(s.ext, x)
	} else {
		w := uint64(open.kind) |
			blkLines<<opLinesShift |
			uint64(nFoot)<<opFootShift |
			uint64(nData)<<opDataShift |
			uint64(open.dtlb)<<opTLBShift |
			uint64(open.brWrong)<<opBrShift |
			open.batch<<opBatchShift
		if fastOK {
			w |= opFastBit
		}
		var d uint64
		switch {
		case nData == 1:
			d = b.body[0]
		case nData >= 2:
			d = uint64(uint32(len(s.data))) | uint64(uint32(len(s.foot))-uint32(nFoot))<<32
			s.data = append(s.data, b.body...)
		}
		var pc uint32
		if blkLines != 0 {
			pc = uint32(blkPC<<8 | uint64(nInstrs))
		}
		b.push(w, d, pc)
	}
	b.body = b.body[:0]
}

// next commits the open op and opens the next one at a boundary event.
// The overwhelmingly common op — an unmasked intra-method block with at
// most one data access and in-range counts — commits through an inline
// fast lane producing exactly emit's packed form: esc pre-checks every
// boundary-time ext condition, dtlb ≤ nData holds structurally (every
// dtlb increment is paired with a body append), and nFoot/fastOK are
// identically zero below two accesses.
func (b *sumBuilder) next(kind uint8) {
	o := &b.open
	if !o.esc && len(b.body) < 2 && o.batch <= opBatchMax && o.brWrong <= opBrMax {
		w := uint64(o.kind) |
			o.blkLines<<opLinesShift |
			uint64(len(b.body))<<opDataShift |
			uint64(o.dtlb)<<opTLBShift |
			uint64(o.brWrong)<<opBrShift |
			o.batch<<opBatchShift
		var d uint64
		if len(b.body) == 1 {
			d = b.body[0]
			b.body = b.body[:0]
		}
		b.push(w, d, o.pcWord)
		// Partial reset: !esc guarantees method is -1 and both masks
		// are 0 already, and blkInstrs/blkFirst/blkPC are dead while
		// blkLines is 0 (setBlock rewrites them all together), so only
		// the body aggregates and the block markers need clearing.
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
// The ubiquitous case — unmasked fetch, plain geometry, a short body
// on the op being committed — runs fused: one inline commit-and-reopen
// producing exactly what next()+setBlock would, without the calls.
func (b *sumBuilder) block(idx, tlbMask, missMask uint64) error {
	if idx >= uint64(len(b.curGeo)) {
		return fmt.Errorf("%w: block %d out of range", ErrMalformed, idx)
	}
	o := &b.open
	g := &b.curGeo[idx]
	if tlbMask|missMask == 0 && !g.esc && !o.esc && len(b.body) < 2 &&
		o.batch <= opBatchMax && o.brWrong <= opBrMax {
		w := uint64(o.kind) |
			o.blkLines<<opLinesShift |
			uint64(len(b.body))<<opDataShift |
			uint64(o.dtlb)<<opTLBShift |
			uint64(o.brWrong)<<opBrShift |
			o.batch<<opBatchShift
		var d uint64
		if len(b.body) == 1 {
			d = b.body[0]
			b.body = b.body[:0]
		}
		b.push(w, d, o.pcWord)
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

// summarize decodes the whole byte stream once into a sumBuilder,
// mirroring ReplayExact's decoder exactly: the same operand forms, the
// same validation, the same frame tracking for block-index resolution.
// A malformed stream yields a summary carrying the error Replay
// reports, so the byte path and the summarized path fail the same
// traces.
func summarize(t *Trace, prog *program.Program) *summary {
	var b sumBuilder
	b.init(prog)
	s := b.s

	var prevAddr uint64

	fail := func(err error) *summary {
		s.err = err
		return s
	}

	for ci := 0; ci < len(t.chunks); ci++ {
		buf := t.chunks[ci]
		pos := 0
		for pos < len(buf) {
			opByte := buf[pos]
			pos++
			kind := opByte & 7
			pay := uint64(opByte >> 3)

			switch kind {
			case kBlock, kBatch, kEnter:
				if pay == payloadEscape {
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad operand at chunk %d pos %d", ErrMalformed, ci, pos))
					}
					pos += n
					pay = v
				}
			}

			switch kind {
			case kBatch:
				b.addBatch(pay)

			case kData:
				write := pay & 1
				delta := pay >> 1
				if delta == 15 {
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad data delta at chunk %d pos %d", ErrMalformed, ci, pos))
					}
					pos += n
					delta = v
				}
				addr := uint64(int64(prevAddr) + unzigzag(delta))
				prevAddr = addr
				b.body = append(b.body, addr<<1|write)

			case kBranch:
				if pay&1 == 0 {
					b.open.brWrong++
				}

			case kBlock:
				if err := b.block(pay, 0, 0); err != nil {
					return fail(err)
				}

			case kEnter:
				if err := b.enter(pay, 0, 0); err != nil {
					return fail(err)
				}

			case kExit:
				if err := b.exit(); err != nil {
					return fail(err)
				}

			case kHalt:
				b.halt()

			case kExt:
				switch pay {
				case extEndHalted:
					b.end(true)
					return s
				case extEndBudget:
					b.end(false)
					return s

				case extBlockMasks, extEnterMasks:
					v, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad masked-entry operand", ErrMalformed))
					}
					pos += n
					tlbMask, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad I-TLB mask", ErrMalformed))
					}
					pos += n
					missMask, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad L1I mask", ErrMalformed))
					}
					pos += n
					// Mask clamping happens inside enter/block
					// (clampMasks), after the same range validation
					// the unmasked forms get.
					if pay == extBlockMasks {
						if err := b.block(v, tlbMask, missMask); err != nil {
							return fail(err)
						}
						break
					}
					if err := b.enter(v, tlbMask, missMask); err != nil {
						return fail(err)
					}

				case extDataTLB:
					w, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad data flags", ErrMalformed))
					}
					pos += n
					delta, n := binary.Uvarint(buf[pos:])
					if n <= 0 {
						return fail(fmt.Errorf("%w: bad data delta", ErrMalformed))
					}
					pos += n
					addr := uint64(int64(prevAddr) + unzigzag(delta))
					prevAddr = addr
					b.body = append(b.body, addr<<1|(w&1))
					b.open.dtlb++

				default:
					return fail(fmt.Errorf("%w: unknown extended event %d", ErrMalformed, pay))
				}
			}
		}
	}
	return fail(fmt.Errorf("%w: missing end marker", ErrMalformed))
}

// sumWalker replays a summary's op stream into a live environment. It
// is the summarized counterpart of ReplayExact's event loop: boundary
// actions (fetch walks, listener calls, AOS method events, divergence
// checks) happen per op in recorded order, while each op's body is
// applied as aggregates — one IssueBatch + sampler settlement for the
// body's whole retire total (exact by the batched-watermark argument
// in vm.AOS.sampleDueN), bulk D-TLB/mispredict charges (commutative
// integer constants within an instance), and a direct access
// (single-access bodies), the footprint fast path, or the exact
// per-access loop for the data stream.
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

// opBoundaryMask selects ops the fused walk cannot fold into a
// straight-line run: every ext op, and every packed kind with bit 0
// or bit 2 set (opEnter=1, opExit=3, opHalt=4, opEndHalted=5,
// opEndBudget=6). The foldable kinds — opSeq=0 and opBlock=2 — are
// exactly the ones with both bits clear.
const opBoundaryMask = opExtBit | 0b101

// walk replays ops[lo:hi). With cacheWork the live L1D/L2 simulate
// every body (direct access or footprint fast path when possible,
// exact loop otherwise); without it the walker performs only the
// state-independent work — AOS boundaries, sampler polls, retire
// batches, and the arithmetic charges — leaving the cache evolution
// to a span worker whose results are spliced in afterwards. done
// reports that an end-marker op was consumed.
//
// Listener-free replays take the fused path, which coalesces the
// arithmetic charges of straight-line runs; replays with a block
// listener must surface every block boundary individually. Either way
// the range is walked one segment piece at a time. A fused run that
// crosses a segment boundary flushes its bulk charges there, which is
// bit-exact for the same reason span splitting is (see walkFused).
func (w *sumWalker) walk(lo, hi int, cacheWork bool) (done bool, err error) {
	for lo < hi && !done && err == nil {
		g, k := w.s.seg(lo)
		ops := g.ops[k:min(k+hi-lo, segOps)]
		if w.listener == nil {
			done, err = w.walkFused(ops, lo, cacheWork)
		} else {
			for j := 0; j < len(ops) && !done && err == nil; j++ {
				done, err = w.applyOp(ops[j], lo+j, cacheWork)
			}
		}
		lo += len(ops)
	}
	return done, err
}

// walkFused is walk for replays without a block listener, over one
// segment piece ops whose first op is op base of the stream. Within a
// straight-line run (consecutive seq/block ops — no method boundary,
// no end marker) the frame stack is constant and every non-cache
// charge is a sum of per-event constants over independent
// accumulators, so the run's fetch lines, retire batch, recorded
// mispredicts, and D-TLB misses can accumulate in locals and flush as
// single bulk charges at the run boundary. Bit-exactness of each
// merged charge: integer counters add associatively, power meters
// charge via Meter.AccessRepeat (one add per event regardless of
// call granularity), and the merged sampler poll delivers the same
// samples to the same frame stack (vm.AOS.sampleDueN covers the
// contiguous retire range identically however it is subdivided).
// Data accesses still apply one at a time, in order — only their
// surrounding arithmetic is batched. Boundary ops flush first, then
// take the exact per-op path, so AOS hooks and reconfigurations
// observe the same machine state as the unfused walk.
func (w *sumWalker) walkFused(ops []sumOp, base int, cacheWork bool) (done bool, err error) {
	mach, aos := w.mach, w.aos
	for i := 0; i < len(ops); {
		var lines, batch, br, dtlb uint64
		j := i
		for ; j < len(ops); j++ {
			o := ops[j]
			if o.w&opBoundaryMask != 0 {
				break
			}
			lines += o.w >> opLinesShift & opLinesMax
			if nData := o.w >> opDataShift & opDataMax; nData != 0 {
				dtlb += o.w >> opTLBShift & opTLBMax
				if cacheWork {
					if nData == 1 {
						mach.ReplayData(o.d>>1, o.d&1 != 0, false)
					} else {
						w.replayBody(o.w, o.d, nData, 0)
					}
				}
			}
			batch += o.w >> opBatchShift
			br += o.w >> opBrShift & opBrMax
		}
		if lines != 0 {
			mach.ReplayFetchCharges(lines, 0, 0)
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
			return false, nil
		}
		done, err = w.applyOp(ops[j], base+j, cacheWork)
		if done || err != nil {
			return done, err
		}
		i = j + 1
	}
	return false, nil
}

// applyOp replays op i of the stream, o, exactly: the boundary action
// in recorded order, then the body, retire batch with sampler poll,
// and misprediction charges.
func (w *sumWalker) applyOp(o sumOp, i int, cacheWork bool) (done bool, err error) {
	mach, aos, s := w.mach, w.aos, w.s
	{
		if o.w&opExtBit != 0 {
			return w.applyExt(o.w&(1<<opKindBits-1), &s.ext[o.d], cacheWork)
		}
		switch o.w & (1<<opKindBits - 1) {
		case opSeq:

		case opBlock:
			if n := o.w >> opLinesShift & opLinesMax; n != 0 {
				mach.ReplayFetchCharges(n, 0, 0)
			}
			if w.listener != nil {
				g, k := s.seg(i)
				p := uint64(g.pcs[k])
				w.listener(p>>8, int(p&opInstrMax))
			}

		case opExit:
			f := w.frames[len(w.frames)-1]
			w.frames = w.frames[:len(w.frames)-1]
			w.ids = w.ids[:len(w.ids)-1]
			aos.ReplayMethodExit(f.m.ID, mach.Instructions()-f.entry)
			if w.check && mach.Instructions() != w.start+w.batchSum {
				return false, ErrDiverged
			}

		case opHalt:
			now := mach.Instructions()
			for j := len(w.frames) - 1; j >= 0; j-- {
				aos.ReplayMethodExit(w.frames[j].m.ID, now-w.frames[j].entry)
			}
			w.frames = w.frames[:0]
			w.ids = w.ids[:0]
			if w.check && now != w.start+w.batchSum {
				return false, ErrDiverged
			}

		case opEndHalted, opEndBudget:
			return true, nil
		}

		if nData := o.w >> opDataShift & opDataMax; nData != 0 {
			dtlb := o.w >> opTLBShift & opTLBMax
			switch {
			case !cacheWork:
				if dtlb != 0 {
					mach.ChargeDataTLBMisses(dtlb)
				}
			case nData == 1:
				mach.ReplayData(o.d>>1, o.d&1 != 0, dtlb != 0)
			default:
				w.replayBody(o.w, o.d, nData, dtlb)
			}
		}
		if batch := o.w >> opBatchShift; batch != 0 {
			mach.IssueBatch(batch)
			w.batchSum += batch
			if w.sampling {
				aos.ReplayBatchPoll(mach.Instructions(), batch, w.ids)
			}
		}
		if br := o.w >> opBrShift & opBrMax; br != 0 {
			mach.ChargeMispredicts(br)
		}
	}
	return false, nil
}

// replayBody applies a packed multi-access body: the footprint bulk
// path when every line is resident, the exact per-access loop
// otherwise.
func (w *sumWalker) replayBody(opw, opd, nData, dtlb uint64) {
	mach := w.mach
	dataOff, footOff := uint32(opd), uint32(opd>>32)
	if opw&opFastBit != 0 && w.footOK {
		nFoot := opw >> opFootShift & opFootMax
		if mach.TryReplayDataFootprint(w.s.foot[footOff:uint64(footOff)+nFoot], nData, dtlb) {
			return
		}
	}
	for _, d := range w.s.data[dataOff : uint64(dataOff)+nData] {
		mach.ReplayData(d>>1, d&1 != 0, false)
	}
	if dtlb != 0 {
		mach.ChargeDataTLBMisses(dtlb)
	}
}

// applyExt replays one ext op: the boundary action (method entry with
// its fetch walk and AOS events, or a masked/overflowed block fetch),
// then the body from the ext record's full-width fields.
func (w *sumWalker) applyExt(kind uint64, x *sumExt, cacheWork bool) (done bool, err error) {
	mach, aos := w.mach, w.aos
	switch kind {
	case opEnter:
		m := w.prog.Method(program.MethodID(x.method))
		w.frames = append(w.frames, rframe{m: m, entry: mach.Instructions()})
		w.ids = append(w.ids, m.ID)
		w.fetch(x, cacheWork)
		if w.listener != nil && !w.firstEnter {
			w.listener(x.pc, int(x.nInstrs))
		}
		w.firstEnter = false
		aos.ReplayMethodEnter(m.ID)
		if w.check && mach.Instructions() != w.start+w.batchSum {
			return false, ErrDiverged
		}

	case opBlock:
		w.fetch(x, cacheWork)
		if w.listener != nil {
			w.listener(x.pc, int(x.nInstrs))
		}

	case opExit:
		f := w.frames[len(w.frames)-1]
		w.frames = w.frames[:len(w.frames)-1]
		w.ids = w.ids[:len(w.ids)-1]
		aos.ReplayMethodExit(f.m.ID, mach.Instructions()-f.entry)
		if w.check && mach.Instructions() != w.start+w.batchSum {
			return false, ErrDiverged
		}

	case opHalt:
		now := mach.Instructions()
		for j := len(w.frames) - 1; j >= 0; j-- {
			aos.ReplayMethodExit(w.frames[j].m.ID, now-w.frames[j].entry)
		}
		w.frames = w.frames[:0]
		w.ids = w.ids[:0]
		if w.check && now != w.start+w.batchSum {
			return false, ErrDiverged
		}

	case opEndHalted, opEndBudget:
		return true, nil
	}

	if x.nData > 0 {
		if cacheWork {
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
		} else if x.dtlb != 0 {
			mach.ChargeDataTLBMisses(uint64(x.dtlb))
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
	return false, nil
}

// fetch applies an ext op's recorded fetch walk. cacheWork=false
// replaces the recorded L1I misses' live L2 traffic with their state-
// independent charges only (the span-parallel spine's mode — the span
// worker simulates that L2 traffic privately).
func (w *sumWalker) fetch(x *sumExt, cacheWork bool) {
	if x.missMask == 0 {
		w.mach.ReplayFetchCharges(uint64(x.nLines), uint64(bits.OnesCount64(x.tlbMask)), 0)
		return
	}
	if cacheWork {
		last := x.firstLine + uint64(x.nLines-1)*iLine
		w.mach.ReplayFetchLines(x.firstLine, last, x.tlbMask, x.missMask)
		return
	}
	w.mach.ReplayFetchCharges(uint64(x.nLines), uint64(bits.OnesCount64(x.tlbMask)), uint64(bits.OnesCount64(x.missMask)))
}
