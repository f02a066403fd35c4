package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("c", 8192, 64, 2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []struct{ size, block, ways int }{
		{8192, 63, 2},   // non-power-of-two block
		{8192, 0, 2},    // zero block
		{8192, 64, 0},   // zero ways
		{8000, 64, 2},   // size not multiple of ways*block
		{64 * 3, 64, 1}, // non-power-of-two sets
	}
	for _, c := range bad {
		if _, err := New("c", c.size, c.block, c.ways); err == nil {
			t.Errorf("New(%v) succeeded, want error", c)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew("c", 1024, 64, 2) // 8 sets
	r := c.Access(0, false)
	if r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("second access to same block should hit")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Error("access within same block should hit")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("next block should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacementWithinSet(t *testing.T) {
	c := MustNew("c", 1024, 64, 2) // 8 sets; set stride = 512 bytes
	const stride = 8 * 64          // addresses mapping to set 0
	c.Access(0*stride, false)
	c.Access(1*stride, false)
	c.Access(0*stride, false) // touch A so B is LRU
	c.Access(2*stride, false) // evicts B
	if !c.Contains(0 * stride) {
		t.Error("A (MRU) should survive")
	}
	if c.Contains(1 * stride) {
		t.Error("B (LRU) should be evicted")
	}
	if !c.Contains(2 * stride) {
		t.Error("C should be resident")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := MustNew("c", 1024, 64, 2)
	const stride = 8 * 64
	c.Access(0, true) // dirty A
	c.Access(stride, false)
	r := c.Access(2*stride, false) // evicts dirty A
	if !r.Writeback {
		t.Fatal("evicting a dirty line must report a writeback")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("WritebackAddr = %d, want 0", r.WritebackAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteAllocateMarksDirty(t *testing.T) {
	c := MustNew("c", 1024, 64, 2)
	c.Access(0, true)
	if c.DirtyLines() != 1 {
		t.Errorf("DirtyLines = %d, want 1", c.DirtyLines())
	}
	// A read hit must not clear dirtiness.
	c.Access(0, false)
	if c.DirtyLines() != 1 {
		t.Errorf("DirtyLines after read hit = %d, want 1", c.DirtyLines())
	}
}

func TestResizeNoop(t *testing.T) {
	c := MustNew("c", 1024, 64, 2)
	c.Access(0, true)
	wb, err := c.Resize(1024)
	if err != nil || wb != 0 {
		t.Errorf("Resize to same size = (%d, %v), want (0, nil)", wb, err)
	}
	if c.Stats().Resizes != 0 {
		t.Error("no-op resize must not count")
	}
}

func TestResizeGrowPreservesContents(t *testing.T) {
	c := MustNew("c", 1024, 64, 2)
	// Distinct sets so nothing is evicted before the grow.
	addrs := []uint64{0, 64, 128, 192, 256}
	for _, a := range addrs {
		c.Access(a, false)
	}
	if wb, err := c.Resize(4096); err != nil || wb != 0 {
		t.Fatalf("grow = (%d, %v), want (0, nil): clean lines never write back", wb, err)
	}
	for _, a := range addrs {
		if !c.Contains(a) {
			t.Errorf("block %d lost on grow", a)
		}
	}
}

func TestResizeShrinkWritesBackOverflowDirty(t *testing.T) {
	// 4 KB, 2-way, 64 B blocks = 32 sets. Fill with 64 dirty
	// blocks (full), shrink to 1 KB (8 sets, 16 lines): 48 dirty
	// lines must be written back.
	c := MustNew("c", 4096, 64, 2)
	for i := 0; i < 64; i++ {
		c.Access(uint64(i*64), true)
	}
	if c.DirtyLines() != 64 {
		t.Fatalf("DirtyLines = %d, want 64", c.DirtyLines())
	}
	wb, err := c.Resize(1024)
	if err != nil {
		t.Fatal(err)
	}
	if wb != 48 {
		t.Errorf("shrink writebacks = %d, want 48", wb)
	}
	if c.ValidLines() != 16 {
		t.Errorf("ValidLines = %d, want 16 (full small cache)", c.ValidLines())
	}
}

func TestResizeShrinkKeepsMostRecent(t *testing.T) {
	c := MustNew("c", 4096, 64, 2)
	// Two blocks folding into the same small-cache set, different
	// recency; with capacity for both ways, both survive; with a
	// third, the oldest goes.
	c.Access(0, false)    // set 0 small
	c.Access(1024, false) // also set 0 after fold to 8 sets? 1024/64=16 → set 16%8=0
	c.Access(2048, false) // block 32 → set 0 after fold
	if _, err := c.Resize(1024); err != nil {
		t.Fatal(err)
	}
	if c.Contains(0) {
		t.Error("oldest folded block should be dropped")
	}
	if !c.Contains(1024) || !c.Contains(2048) {
		t.Error("two most recent folded blocks should survive")
	}
}

func TestResizeRoundTripKeepsWorkingSet(t *testing.T) {
	// Shrinking then growing must retain whatever survived the
	// shrink (grow never drops).
	c := MustNew("c", 4096, 64, 2)
	c.Access(0, false)
	c.Access(64, true)
	if _, err := c.Resize(1024); err != nil {
		t.Fatal(err)
	}
	survived0, survived1 := c.Contains(0), c.Contains(64)
	if _, err := c.Resize(4096); err != nil {
		t.Fatal(err)
	}
	if c.Contains(0) != survived0 || c.Contains(64) != survived1 {
		t.Error("grow changed residency of surviving blocks")
	}
}

func TestResizeReusesArrays(t *testing.T) {
	c := MustNew("c", 8192, 64, 2)
	for i := 0; i < 4; i++ { // both arrays reach full size
		if _, err := c.Resize([]int{1024, 8192}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, size := range []int{2048, 8192, 1024, 4096} {
			c.Access(uint64(n*64), n%3 == 0)
			n++
			if _, err := c.Resize(size); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("resizes between sizes already held allocate %v times, want 0", allocs)
	}
}

// TestReleasedArraysStartClean: caches built after others released
// their arrays (Release) get them back zeroed. A reused array with
// stale lines would show as phantom valid or dirty lines.
func TestReleasedArraysStartClean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		old := MustNew("c", 8192, 64, 2)
		for i := 0; i < 500; i++ {
			old.Access(uint64(rng.Intn(32768)), true)
		}
		if _, err := old.Resize(2048); err != nil { // leaves a spare too
			t.Fatal(err)
		}
		old.Access(64, true)
		old.Release()
		for _, size := range []int{8192, 2048} {
			c := MustNew("c", size, 64, 2)
			if v, d := c.ValidLines(), c.DirtyLines(); v != 0 || d != 0 {
				t.Fatalf("round %d: new %d-byte cache starts with %d valid, %d dirty lines", round, size, v, d)
			}
			if r := c.Access(64, false); r.Hit || r.Writeback {
				t.Fatalf("round %d: first access on a new cache = %+v, want a clean miss", round, r)
			}
		}
	}
}

// TestResizeReuseMatchesFreshArrays holds a cache whose resizes reuse
// the previous array to one that migrates into a fresh array every
// time: any state left behind in a reused array would show as a
// different hit, write-back or stats sequence.
func TestResizeReuseMatchesFreshArrays(t *testing.T) {
	sizes := []int{1024, 2048, 4096, 8192}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, fresh := MustNew("c", 8192, 64, 2), MustNew("c", 8192, 64, 2)
		for i := 0; i < 2000; i++ {
			if rng.Intn(20) == 0 {
				size := sizes[rng.Intn(len(sizes))]
				fresh.spare = nil
				wbC, errC := c.Resize(size)
				wbF, errF := fresh.Resize(size)
				if errC != nil || errF != nil || wbC != wbF {
					t.Logf("step %d resize %d: (%d, %v) vs fresh (%d, %v)", i, size, wbC, errC, wbF, errF)
					return false
				}
			}
			addr, write := uint64(rng.Intn(32768)), rng.Intn(3) == 0
			if got, want := c.Access(addr, write), fresh.Access(addr, write); got != want {
				t.Logf("step %d addr %d write %v: %+v vs fresh %+v", i, addr, write, got, want)
				return false
			}
		}
		return c.Stats() == fresh.Stats() && c.DirtyLines() == fresh.DirtyLines() &&
			c.ValidLines() == fresh.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// refModel is a brute-force set-associative LRU cache used as the
// oracle for the property test.
type refModel struct {
	blockShift uint
	ways       int
	numSets    uint64
	sets       map[uint64][]refLine // set -> lines, MRU first
}

type refLine struct {
	tag   uint64
	dirty bool
}

func newRef(size, block, ways int) *refModel {
	m := &refModel{ways: ways, sets: map[uint64][]refLine{}}
	for 1<<m.blockShift < block {
		m.blockShift++
	}
	m.numSets = uint64(size / (block * ways))
	return m
}

func (m *refModel) access(addr uint64, write bool) (hit, writeback bool) {
	blockAddr := addr >> m.blockShift
	set := blockAddr & (m.numSets - 1)
	lines := m.sets[set]
	for i, ln := range lines {
		if ln.tag == blockAddr {
			ln.dirty = ln.dirty || write
			lines = append([]refLine{ln}, append(append([]refLine{}, lines[:i]...), lines[i+1:]...)...)
			m.sets[set] = lines
			return true, false
		}
	}
	lines = append([]refLine{{tag: blockAddr, dirty: write}}, lines...)
	if len(lines) > m.ways {
		victim := lines[len(lines)-1]
		lines = lines[:len(lines)-1]
		writeback = victim.dirty
	}
	m.sets[set] = lines
	return false, writeback
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew("c", 2048, 64, 2)
		ref := newRef(2048, 64, 2)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(16384))
			write := rng.Intn(3) == 0
			got := c.Access(addr, write)
			wantHit, wantWB := ref.access(addr, write)
			if got.Hit != wantHit || got.Writeback != wantWB {
				t.Logf("step %d addr %d write %v: got (%v,%v) want (%v,%v)",
					i, addr, write, got.Hit, got.Writeback, wantHit, wantWB)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResizeInvariantsProperty(t *testing.T) {
	sizes := []int{1024, 2048, 4096, 8192}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew("c", 8192, 64, 2)
		for i := 0; i < 500; i++ {
			if rng.Intn(10) == 0 {
				before := c.DirtyLines()
				wb, err := c.Resize(sizes[rng.Intn(len(sizes))])
				if err != nil {
					return false
				}
				// Dirty lines are either retained or written
				// back, never silently lost.
				if c.DirtyLines()+wb != before {
					return false
				}
				// The cache can never hold more lines than
				// capacity.
				if c.ValidLines() > c.NumSets()*c.Ways() {
					return false
				}
			}
			c.Access(uint64(rng.Intn(32768)), rng.Intn(2) == 0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew("c", 1024, 64, 2)
	c.Access(0, true)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats should zero counters")
	}
	if !c.Contains(0) {
		t.Error("ResetStats must not touch contents")
	}
}
