// Bulk access paths for the summarized-block replay engine
// (internal/rtrace): residency-checked whole-footprint application,
// plus the canonical per-set view replay differential tests compare.
package cache

// FootLine is one distinct cache line of a block instance's data
// footprint, precomputed when a trace is recorded: the line's byte
// address, the 1-based position of the instance's *last* access to it
// (among the instance's accesses to this cache), and whether any of
// those accesses wrote it.
type FootLine struct {
	// Addr is the byte address of any word in the line.
	Addr uint64
	// Ordinal is the 1-based index, within the instance's access
	// sequence, of the last access that touched this line.
	Ordinal uint32
	// Write is true when any access to the line in the instance was
	// a write.
	Write bool
}

// TryApplyFootprint applies a block instance's whole data footprint as
// one bulk update when — and only when — every footprint line is
// resident: accesses total accesses, all hits, are accounted against
// the stats and the LRU clock, each line's last-use tick lands exactly
// where the per-access path would put it (tick base + Ordinal), and
// written lines are dirtied. When any line is absent the cache is left
// completely untouched and false is returned; the caller must then
// fall back to the exact per-access path.
//
// The equivalence argument: when every line of the footprint is
// resident at the instance's start, every access hits, so no line is
// evicted mid-instance and no writeback or fill occurs — the final
// state differs from the initial one only in the touched lines'
// last-use ticks (set by their last access) and dirty bits (OR of the
// instance's writes), which is precisely what this bulk update writes.
func (c *Cache) TryApplyFootprint(foot []FootLine, accesses uint64) bool {
	// Pass 1: probe only. A miss anywhere must leave no trace.
	var idx [MaxFootprint]int32
	if len(foot) > len(idx) {
		return false
	}
	for i := range foot {
		blockAddr := foot[i].Addr >> c.blockShift
		base := int32(blockAddr&c.setMask) * int32(c.ways)
		hit := int32(-1)
		for w := int32(0); w < int32(c.ways); w++ {
			ln := &c.lines[base+w]
			if ln.valid && ln.tag == blockAddr {
				hit = base + w
				break
			}
		}
		if hit < 0 {
			return false
		}
		idx[i] = hit
	}
	// Pass 2: commit.
	tickBase := c.useTick
	c.useTick += accesses
	c.stats.Accesses += accesses
	c.stats.Hits += accesses
	for i := range foot {
		ln := &c.lines[idx[i]]
		ln.lastUse = tickBase + uint64(foot[i].Ordinal)
		if foot[i].Write {
			ln.dirty = true
		}
	}
	return true
}

// MaxFootprint bounds the footprint size TryApplyFootprint accepts;
// the recorder marks larger instances exact-only.
const MaxFootprint = 32

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
