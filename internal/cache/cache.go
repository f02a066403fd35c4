// Package cache implements the memory-hierarchy building blocks of the
// simulated machine: set-associative write-back LRU caches whose size
// can be changed at run time (the paper's configurable units), and
// fully-associative TLBs.
//
// Resizing follows the paper's cost model: any resize writes back every
// dirty line and invalidates the whole array; the caller charges the
// write-backs in cycles and energy (Section 2.1: "to reduce a cache's
// size, dirty cache lines must be written back to lower memory
// hierarchy").
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Result describes the outcome of one cache access.
type Result struct {
	// Hit is true when the block was present.
	Hit bool
	// Writeback is true when the access evicted a dirty block that
	// must be written to the next level.
	Writeback bool
	// WritebackAddr is the byte address of the evicted dirty block
	// (valid only when Writeback is true).
	WritebackAddr uint64
}

// Stats counts cache events since the last ResetStats.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions, incl. those forced by resizes
	Resizes    uint64
	// FlushWritebacks counts the subset of Writebacks caused by
	// resizes — the reconfiguration overhead the power model and
	// timing model charge separately.
	FlushWritebacks uint64
}

// MissRate returns misses/accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	lastUse uint64
	valid   bool
	dirty   bool
}

// Cache is a resizable set-associative write-back cache with true LRU
// replacement. Associativity and block size are fixed at construction;
// resizing changes the number of sets.
type Cache struct {
	name       string
	blockBytes uint64
	blockShift uint
	ways       int

	sizeBytes int
	numSets   uint64
	setMask   uint64
	lines     []line // numSets × ways, set-major
	// spare is the array the last Resize migrated out of, kept so
	// the next Resize can reuse it instead of allocating: a managed
	// run resizes its caches many times, and a fresh array per
	// resize would be most of the garbage a replay makes.
	spare []line

	useTick uint64
	stats   Stats
}

// New constructs a cache. sizeBytes must be a power-of-two multiple of
// ways*blockBytes, and blockBytes a power of two.
func New(name string, sizeBytes, blockBytes, ways int) (*Cache, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: block size %d not a power of two", name, blockBytes)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways %d must be positive", name, ways)
	}
	c := &Cache{
		name:       name,
		blockBytes: uint64(blockBytes),
		ways:       ways,
	}
	for 1<<c.blockShift < blockBytes {
		c.blockShift++
	}
	if err := c.configure(sizeBytes); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New that panics on error, for fixed-parameter call sites.
func MustNew(name string, sizeBytes, blockBytes, ways int) *Cache {
	c, err := New(name, sizeBytes, blockBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) configure(sizeBytes int) error {
	lineBytes := int(c.blockBytes) * c.ways
	if sizeBytes <= 0 || sizeBytes%lineBytes != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of ways×block (%d)", c.name, sizeBytes, lineBytes)
	}
	numSets := sizeBytes / lineBytes
	if numSets&(numSets-1) != 0 {
		return fmt.Errorf("cache %s: size %d yields non-power-of-two set count %d", c.name, sizeBytes, numSets)
	}
	c.sizeBytes = sizeBytes
	c.numSets = uint64(numSets)
	c.setMask = c.numSets - 1
	if n := numSets * c.ways; cap(c.spare) >= n {
		c.lines = c.spare[:n]
		clear(c.lines)
	} else {
		c.lines = newLines(n)
	}
	c.spare = nil
	return nil
}

// linePools recycles line arrays across caches, one pool per
// power-of-two capacity. Every run builds a fresh machine whose caches
// start at their largest size; without reuse those arrays were most of
// the garbage a process serving replays makes, and its GC cycle rate
// scaled with that garbage over its (trace-sized) live heap.
var linePools [bits.UintSize]sync.Pool

// lineClass is the linePools index for n lines: ceil(log2 n).
func lineClass(n int) int { return bits.Len(uint(n - 1)) }

// newLines returns n zeroed lines, reusing a released array of the
// same capacity class when the pool holds one.
func newLines(n int) []line {
	k := lineClass(n)
	if p, ok := linePools[k].Get().(*[]line); ok {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]line, n, 1<<k)
}

// Release hands the cache's line arrays to caches built later. The
// cache must not be used afterwards: its arrays are gone, so any use
// panics rather than touching a reused array.
func (c *Cache) Release() {
	for _, s := range [...][]line{c.lines, c.spare} {
		if n := cap(s); n > 0 && n == 1<<lineClass(n) {
			linePools[lineClass(n)].Put(&s)
		}
	}
	c.lines, c.spare = nil, nil
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// SizeBytes returns the current capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sizeBytes }

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return int(c.blockBytes) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumSets returns the current number of sets.
func (c *Cache) NumSets() int { return int(c.numSets) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (contents are untouched).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access simulates one access to the byte address addr. write marks
// the block dirty on hit or after fill (write-allocate). The returned
// Result reports hit/miss and any dirty eviction; the caller is
// responsible for propagating misses and write-backs to the next
// level.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	c.useTick++
	// The full block address serves as the tag; the set bits are
	// redundant in it but harmless, and keeping them avoids a shift
	// on every probe.
	blockAddr := addr >> c.blockShift
	base := int(blockAddr&c.setMask) * c.ways
	if i := probe(c.lines, base, c.ways, blockAddr); i >= 0 {
		c.stats.Hits++
		ln := &c.lines[i]
		ln.lastUse = c.useTick
		if write {
			ln.dirty = true
		}
		return Result{Hit: true}
	}
	return c.fill(victim(c.lines, base, c.ways), blockAddr, write)
}

// AccessWords is the batched form of Access for a run of data
// accesses, stored as entries: entry i is ks[i] consecutive accesses
// to one block, whose operand ds[i] is the block's address in this
// cache (a byte address shifted right by its block shift) shifted left
// once, with the write flag in bit 0. It applies the entries in order
// and stops after the first that misses, returning how many it
// consumed and the last one's Result — Hit when every entry hit,
// otherwise the miss with its dirty eviction, which the caller
// propagates before it resumes on the rest of ds. Each entry probes
// once: every consumed entry changes the cache and its stats exactly
// as ks[i] calls to Access at addresses in its block would, each with
// the entry's write flag (a miss fills, and the entry's other accesses
// hit the filled line). Hits keep the LRU clock and the hit count in
// locals. ks must be at least as long as ds, and every count at
// least 1.
func (c *Cache) AccessWords(ds []uint16, ks []uint8) (int, Result) {
	lines, ways, mask := c.lines, c.ways, c.setMask
	tick, hits := c.useTick, c.stats.Hits
	ks = ks[:len(ds)]
	var acc uint64
	for i, d := range ds {
		k := uint64(ks[i])
		blockAddr := uint64(d >> 1)
		base := int(blockAddr&mask) * ways
		w := probe(lines, base, ways, blockAddr)
		if w < 0 {
			// The miss takes tick+1 and its k-1 trailing hits the
			// ticks after it, so the filled line ends at tick+k.
			c.useTick, c.stats.Hits = tick+k, hits+k-1
			c.stats.Accesses += acc + k
			return i + 1, c.fill(victim(lines, base, ways), blockAddr, d&1 != 0)
		}
		tick += k
		hits += k
		acc += k
		ln := &lines[w]
		ln.lastUse = tick
		if d&1 != 0 {
			ln.dirty = true
		}
	}
	c.useTick, c.stats.Hits = tick, hits
	c.stats.Accesses += acc
	return len(ds), Result{Hit: true}
}

// probe returns the index of the line in the set at base that holds
// blockAddr, or -1 when the set misses. Both L1s are 2-way, where two
// inline compares beat the general scan.
func probe(lines []line, base, ways int, blockAddr uint64) int {
	if ways == 2 {
		set := lines[base : base+2 : base+2]
		if set[0].valid && set[0].tag == blockAddr {
			return base
		}
		if set[1].valid && set[1].tag == blockAddr {
			return base + 1
		}
		return -1
	}
	for i, ln := range lines[base : base+ways] {
		if ln.valid && ln.tag == blockAddr {
			return base + i
		}
	}
	return -1
}

// victim returns the line of the set at base that a miss replaces:
// the first invalid way, else the least recently used.
func victim(lines []line, base, ways int) int {
	v := base
	for i := base; i < base+ways; i++ {
		if !lines[i].valid {
			return i
		}
		if lines[i].lastUse < lines[v].lastUse {
			v = i
		}
	}
	return v
}

// fill installs blockAddr in the line at index victim on a miss,
// reporting any dirty eviction.
func (c *Cache) fill(victim int, blockAddr uint64, write bool) Result {
	c.stats.Misses++
	var res Result
	v := &c.lines[victim]
	if v.valid && v.dirty {
		c.stats.Writebacks++
		res.Writeback = true
		res.WritebackAddr = v.tag << c.blockShift
	}
	*v = line{tag: blockAddr, lastUse: c.useTick, valid: true, dirty: write}
	return res
}

// Contains reports whether the block holding addr is present (no state
// change; for tests).
func (c *Cache) Contains(addr uint64) bool {
	blockAddr := addr >> c.blockShift
	set := blockAddr & c.setMask
	base := int(set) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == blockAddr {
			return true
		}
	}
	return false
}

// DirtyLines returns the number of valid dirty lines (for tests and
// for estimating flush cost ahead of a resize).
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Resize changes the capacity to newSizeBytes, migrating cache state
// the way selective-sets reconfiguration hardware does: every resident
// block is re-placed under the new set indexing, keeping the most
// recently used blocks when more blocks fold into a set than its
// associativity holds. Dirty blocks that no longer fit are written
// back (returned as writebacks, also counted in Stats) — the paper's
// reconfiguration overhead of "writing dirty cache lines to the lower
// memory hierarchy". Clean blocks that no longer fit are dropped
// silently. Resizing to the current size is a no-op returning 0.
func (c *Cache) Resize(newSizeBytes int) (writebacks int, err error) {
	if newSizeBytes == c.sizeBytes {
		return 0, nil
	}
	old := c.lines
	if err := c.configure(newSizeBytes); err != nil {
		return 0, err
	}
	for _, ln := range old {
		if ln.valid {
			writebacks += c.place(ln)
		}
	}
	c.spare = old
	c.stats.Resizes++
	c.stats.Writebacks += uint64(writebacks)
	c.stats.FlushWritebacks += uint64(writebacks)
	return writebacks, nil
}

// place inserts a migrated line under the current indexing. When the
// target set is full, the least recently used of {occupants, ln} is
// dropped. It returns the number of dirty lines dropped (0 or 1).
func (c *Cache) place(ln line) int {
	set := ln.tag & c.setMask
	base := int(set) * c.ways
	victim := -1
	for i := base; i < base+c.ways; i++ {
		if !c.lines[i].valid {
			c.lines[i] = ln
			return 0
		}
		if victim < 0 || c.lines[i].lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}
	dropped := ln
	if c.lines[victim].lastUse < ln.lastUse {
		dropped = c.lines[victim]
		c.lines[victim] = ln
	}
	if dropped.dirty {
		return 1
	}
	return 0
}

// LineView is one valid line of a set in canonical form (ViewSet).
type LineView struct {
	// Tag is the full block address (the cache's internal tag).
	Tag uint64
	// LastUse is the line's LRU clock reading.
	LastUse uint64
	// Dirty marks a modified line.
	Dirty bool
}

// ViewSet returns the set's valid lines ordered LRU-first (ascending
// last-use). Way positions are deliberately absent: two caches whose
// sets hold the same tags in the same recency order with the same
// dirty bits behave identically on every future access sequence, so
// this ordered view is the canonical set state. It is the accessor
// the replay differential tests dump every set through when they
// compare a replayed machine against the recording run's.
func (c *Cache) ViewSet(set uint64) []LineView {
	base := int(set) * c.ways
	view := make([]LineView, 0, c.ways)
	for i := base; i < base+c.ways; i++ {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		view = append(view, LineView{Tag: ln.tag, LastUse: ln.lastUse, Dirty: ln.dirty})
	}
	// Insertion sort by LastUse; ticks are unique per cache, and sets
	// hold at most a handful of ways.
	for i := 1; i < len(view); i++ {
		for j := i; j > 0 && view[j].LastUse < view[j-1].LastUse; j-- {
			view[j], view[j-1] = view[j-1], view[j]
		}
	}
	return view
}

// Tick returns the cache's LRU clock (one tick per access).
func (c *Cache) Tick() uint64 { return c.useTick }
