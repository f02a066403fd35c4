package cache

// Native fuzz targets for the resizable cache: against the
// brute-force LRU oracle (see cache_test.go), and the batched
// AccessWords kernel against one Access per operand.

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCacheVsReference interleaves random accesses and resizes and
// checks hit/miss against the oracle after every resize re-sync (the
// oracle has no resize, so each resize starts a fresh comparison
// window where only *misses* are compared conservatively: a block the
// real cache retained may hit where the fresh oracle misses, never the
// reverse).
func FuzzCacheVsReference(f *testing.F) {
	for _, seed := range []int64{1, 99, 2024} {
		f.Add(seed)
	}
	sizes := []int{1024, 2048, 4096, 8192}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew("c", 8192, 64, 2)
		ref := newRef(8192, 64, 2)
		synced := true
		for i := 0; i < 3000; i++ {
			if rng.Intn(20) == 0 {
				before := c.DirtyLines()
				wb, err := c.Resize(sizes[rng.Intn(len(sizes))])
				if err != nil {
					t.Fatal(err)
				}
				if c.DirtyLines()+wb != before {
					t.Fatalf("resize lost dirty lines: %d + %d != %d",
						c.DirtyLines(), wb, before)
				}
				if c.ValidLines() > c.NumSets()*c.Ways() {
					t.Fatal("over-full cache after resize")
				}
				synced = false
				ref = newRef(c.SizeBytes(), 64, 2)
				continue
			}
			addr := uint64(rng.Intn(32768))
			write := rng.Intn(3) == 0
			got := c.Access(addr, write)
			wantHit, _ := ref.access(addr, write)
			if synced {
				if got.Hit != wantHit {
					t.Fatalf("step %d addr %d: hit=%v oracle=%v", i, addr, got.Hit, wantHit)
				}
			} else if wantHit && !got.Hit {
				// After a resize the real cache may retain
				// blocks the fresh oracle does not know, so
				// only this direction is a bug.
				t.Fatalf("step %d addr %d: oracle hit but cache missed after resize", i, addr)
			}
		}
	})
}

// FuzzAccessWords checks the batched kernel against the one-access
// path: random batches of (operand, count) entries, reads and writes,
// go through AccessWords on one cache, and each entry as count
// sequential Access calls, each at a random byte address in the
// entry's block with the entry's write flag, on a twin, for every
// associativity the configuration search uses plus 16-way, with random
// resizes between batches. Counts cover 1–255, with 1 and 255 often;
// a third of the entries stay in their predecessor's block, and the
// blocks span three times the cache, so entries miss and evict dirty
// lines. After each batch the two must agree on stats, the LRU clock,
// every set's lines (tags, last use, dirty bits), and each miss's
// Result, in order.
func FuzzAccessWords(f *testing.F) {
	for _, seed := range []int64{1, 7, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		count := func() uint8 {
			switch rng.Intn(4) {
			case 0:
				return 1
			case 1:
				return 255
			}
			return uint8(1 + rng.Intn(255))
		}
		for _, ways := range []int{1, 2, 4, 8, 16} {
			sizes := []int{4 * ways * 64, 8 * ways * 64, 16 * ways * 64, 32 * ways * 64}
			c := MustNew("kernel", sizes[3], 64, ways)
			twin := MustNew("twin", sizes[3], 64, ways)
			// Three times the largest capacity in blocks, so
			// batches mix hits, clean and dirty evictions.
			span := 3 * 32 * ways
			for batch := 0; batch < 100; batch++ {
				if rng.Intn(8) == 0 {
					size := sizes[rng.Intn(len(sizes))]
					wb, err := c.Resize(size)
					if err != nil {
						t.Fatal(err)
					}
					if twb, _ := twin.Resize(size); twb != wb {
						t.Fatalf("%d-way resize: %d writebacks, twin %d", ways, wb, twb)
					}
				}
				ds := make([]uint16, rng.Intn(48))
				ks := make([]uint8, len(ds))
				for i := range ds {
					block := rng.Intn(span)
					if i > 0 && rng.Intn(3) == 0 {
						block = int(ds[i-1] >> 1)
					}
					ds[i] = uint16(block) << 1
					if rng.Intn(3) == 0 {
						ds[i] |= 1
					}
					ks[i] = count()
				}
				var got, want []Result
				for rest, rk := ds, ks; len(rest) > 0; {
					n, r := c.AccessWords(rest, rk)
					if n < 1 || n > len(rest) || r.Hit && n != len(rest) {
						t.Fatalf("%d-way batch %d: consumed %d of %d, hit %v", ways, batch, n, len(rest), r.Hit)
					}
					if !r.Hit {
						got = append(got, r)
					}
					rest, rk = rest[n:], rk[n:]
				}
				for i, d := range ds {
					for k := ks[i]; k > 0; k-- {
						addr := uint64(d>>1)<<6 | uint64(rng.Intn(64))
						if r := twin.Access(addr, d&1 != 0); !r.Hit {
							want = append(want, r)
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-way batch %d: miss results %v, twin %v", ways, batch, got, want)
				}
				if c.Stats() != twin.Stats() || c.Tick() != twin.Tick() {
					t.Fatalf("%d-way batch %d: stats %+v tick %d, twin %+v tick %d",
						ways, batch, c.Stats(), c.Tick(), twin.Stats(), twin.Tick())
				}
				for set := uint64(0); set < uint64(c.NumSets()); set++ {
					if g, w := c.ViewSet(set), twin.ViewSet(set); !reflect.DeepEqual(g, w) {
						t.Fatalf("%d-way batch %d set %d: %+v, twin %+v", ways, batch, set, g, w)
					}
				}
			}
		}
	})
}
