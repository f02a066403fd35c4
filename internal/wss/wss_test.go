package wss

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{SignatureBits: 0, Threshold: 0.5},
		{SignatureBits: 1000, Threshold: 0.5},
		{SignatureBits: 1024, Threshold: 0},
		{SignatureBits: 1024, Threshold: 1.5},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestDistance(t *testing.T) {
	a := newSignature(128)
	b := newSignature(128)
	if Distance(a, b) != 0 {
		t.Error("two empty signatures should have distance 0")
	}
	a.set(3)
	if Distance(a, a) != 0 {
		t.Error("identical signatures should have distance 0")
	}
	if got := Distance(a, b); got != 1 {
		t.Errorf("disjoint distance = %v, want 1", got)
	}
	b.set(3)
	b.set(70)
	// A={3}, B={3,70}: xor=1, or=2.
	if got := Distance(a, b); got != 0.5 {
		t.Errorf("distance = %v, want 0.5", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newSignature(256)
		b := newSignature(256)
		for i := 0; i < 50; i++ {
			a.set(uint64(rng.Intn(256)))
			b.set(uint64(rng.Intn(256)))
		}
		d := Distance(a, b)
		// Symmetry, range, identity.
		return d == Distance(b, a) && d >= 0 && d <= 1 && Distance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDetectorClassifiesWorkingSets(t *testing.T) {
	d := MustNewDetector(DefaultParams())
	// Interval A: blocks 0..9.
	for pc := uint64(0); pc < 10; pc++ {
		d.Accumulate(pc*16, 8, 1)
	}
	if got := d.Boundary(); got != 0 {
		t.Fatalf("first interval phase = %d", got)
	}
	// Interval B: disjoint blocks 100..109: new phase.
	for pc := uint64(100); pc < 110; pc++ {
		d.Accumulate(pc*16, 8, 1)
	}
	if got := d.Boundary(); got != 1 {
		t.Fatalf("disjoint interval phase = %d, want 1", got)
	}
	// Interval A again, with one extra block: recurring (δ small).
	for pc := uint64(0); pc < 11; pc++ {
		d.Accumulate(pc*16, 8, 1)
	}
	if got := d.Boundary(); got != 0 {
		t.Fatalf("recurring interval phase = %d, want 0", got)
	}
}

func TestAccumulateIgnoresWeight(t *testing.T) {
	// Working sets record membership: executing a block once or a
	// thousand times yields the same signature.
	d1 := MustNewDetector(DefaultParams())
	d2 := MustNewDetector(DefaultParams())
	d1.Accumulate(64, 8, 1)
	for i := 0; i < 1000; i++ {
		d2.Accumulate(64, 8, 1)
	}
	p1 := d1.Boundary()
	// d2 must classify into the same phase as d1's signature...
	// they are separate detectors, so instead check the signature
	// directly: same bits set.
	_ = p1
	if Distance(d1.signatures[0], d2.acc) != 0 {
		t.Error("repetition must not change the signature")
	}
}

// TestAccumulateRepeatEqualsUnitCalls: one Accumulate(pc, instrs, n)
// must leave the signature exactly as n calls with n = 1 do: no bit
// for n = 0, the block's bit for any n > 0, whatever instrs·n is. A
// unit call after the first sets nothing new, so the unit side stops
// at 16 calls.
func TestAccumulateRepeatEqualsUnitCalls(t *testing.T) {
	for _, c := range []struct {
		instrs int
		n      uint64
	}{{8, 0}, {8, 1}, {8, 3}, {1 << 20, 1 << 13}, {math.MaxInt, 1 << 40}} {
		bulk, unit := MustNewDetector(DefaultParams()), MustNewDetector(DefaultParams())
		bulk.Accumulate(64, 3, 1)
		unit.Accumulate(64, 3, 1)
		bulk.Accumulate(4096, c.instrs, c.n)
		for k := uint64(0); k < min(c.n, 16); k++ {
			unit.Accumulate(4096, c.instrs, 1)
		}
		if !slices.Equal(bulk.acc, unit.acc) {
			t.Errorf("instrs %d n %d: repeat count and unit calls set different bits", c.instrs, c.n)
		}
	}
}

func TestDetectorName(t *testing.T) {
	if MustNewDetector(DefaultParams()).Name() != "wss" {
		t.Error("name wrong")
	}
}
