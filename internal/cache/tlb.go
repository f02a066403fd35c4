package cache

// TLB is a fully-associative, true-LRU translation lookaside buffer.
// It maps page numbers; the simulated machine has no page table, so a
// TLB miss simply charges the miss penalty and installs the entry.
//
// The 128-entry fully-associative organisation of the paper's baseline
// (Table 2) makes a linear scan per access too slow, so the TLB keeps
// an index from page to slot plus an intrusive doubly-linked LRU list —
// O(1) per access with identical replacement behaviour. The index is a
// linear-probing open-addressing table with a multiplicative hash
// rather than a Go map: the translation sits on the engine's per-fetch
// and per-data-access hot path, where map hashing dominated the
// simulator's profile. An MRU short-circuit resolves the common case —
// repeated translations of the same page (instruction fetch inside a
// loop) — with one comparison and no index probe at all.
type TLB struct {
	name     string
	pageBits uint
	capacity int

	slots []tlbEntry
	head  int // most recently used, -1 when empty
	tail  int // least recently used, -1 when empty
	used  int

	// Open-addressing page→slot index, sized at 4× capacity for
	// short probe sequences. vals[i] < 0 marks an empty cell;
	// deletion backward-shifts so no tombstones accumulate.
	keys []uint64
	vals []int32
	mask uint64

	stats TLBStats
}

type tlbEntry struct {
	page       uint64
	prev, next int
}

// TLBStats counts TLB events.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 with no accesses.
func (s TLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewTLB constructs a TLB with the given entry count and page size
// (bytes, power of two).
func NewTLB(name string, entries, pageBytes int) *TLB {
	if entries <= 0 {
		panic("cache: TLB entries must be positive")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("cache: TLB page size must be a positive power of two")
	}
	tableSize := 4
	for tableSize < 4*entries {
		tableSize *= 2
	}
	t := &TLB{
		name:     name,
		capacity: entries,
		slots:    make([]tlbEntry, entries),
		keys:     make([]uint64, tableSize),
		vals:     make([]int32, tableSize),
		mask:     uint64(tableSize - 1),
		head:     -1,
		tail:     -1,
	}
	for i := range t.vals {
		t.vals[i] = -1
	}
	for 1<<t.pageBits < pageBytes {
		t.pageBits++
	}
	return t
}

// Name returns the TLB's name.
func (t *TLB) Name() string { return t.name }

// Stats returns a copy of the event counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// ResetStats zeroes the event counters.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

// hash spreads page numbers over the probe table (Fibonacci hashing;
// the multiplier is 2^64/φ).
func (t *TLB) hash(page uint64) uint64 {
	return (page * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// lookup returns the index cell holding page, or -1.
func (t *TLB) lookup(page uint64) int {
	for i := t.hash(page); ; i = (i + 1) & t.mask {
		if t.vals[i] < 0 {
			return -1
		}
		if t.keys[i] == page {
			return int(i)
		}
	}
}

// insert adds page→slot to the index (page must be absent).
func (t *TLB) insert(page uint64, slot int) {
	i := t.hash(page)
	for t.vals[i] >= 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = page
	t.vals[i] = int32(slot)
}

// remove deletes the cell at index i, backward-shifting the probe
// chain so lookups never need tombstones.
func (t *TLB) remove(i int) {
	for {
		t.vals[i] = -1
		j := i
		for {
			j = int(uint64(j+1) & t.mask)
			if t.vals[j] < 0 {
				return
			}
			h := int(t.hash(t.keys[j]))
			// Move cell j into the hole at i when its ideal
			// position h does not lie in the (cyclic) range (i, j].
			if i <= j {
				if h > i && h <= j {
					continue
				}
			} else if h > i || h <= j {
				continue
			}
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
			break
		}
	}
}

// Access translates the byte address addr, returning true on hit. On a
// miss the entry is installed, evicting the LRU entry if full.
func (t *TLB) Access(addr uint64) bool {
	t.stats.Accesses++
	page := addr >> t.pageBits
	// MRU short-circuit: a hit on the most recently used entry needs
	// no index probe and no LRU relink.
	if h := t.head; h >= 0 && t.slots[h].page == page {
		return true
	}
	if cell := t.lookup(page); cell >= 0 {
		t.touch(int(t.vals[cell]))
		return true
	}
	t.stats.Misses++
	var slot int
	if t.used < t.capacity {
		slot = t.used
		t.used++
	} else {
		slot = t.tail
		t.unlink(slot)
		t.remove(t.lookup(t.slots[slot].page))
	}
	t.slots[slot].page = page
	t.insert(page, slot)
	t.pushFront(slot)
	return false
}

// Contains reports whether addr's page is resident (no state change).
func (t *TLB) Contains(addr uint64) bool {
	return t.lookup(addr>>t.pageBits) >= 0
}

func (t *TLB) touch(slot int) {
	if t.head == slot {
		return
	}
	t.unlink(slot)
	t.pushFront(slot)
}

func (t *TLB) unlink(slot int) {
	e := &t.slots[slot]
	if e.prev >= 0 {
		t.slots[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.slots[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *TLB) pushFront(slot int) {
	e := &t.slots[slot]
	e.prev = -1
	e.next = t.head
	if t.head >= 0 {
		t.slots[t.head].prev = slot
	}
	t.head = slot
	if t.tail < 0 {
		t.tail = slot
	}
}
