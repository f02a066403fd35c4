package bbv

import (
	"slices"
	"testing"

	"acedo/internal/fault"
	"acedo/internal/stats"
)

// FuzzDetector drives the BBV detector with arbitrary
// accumulate/boundary sequences — including injected accumulator
// corruption — and checks the invariants the phase managers rely on:
// classification always returns a valid phase id, stored signatures
// stay normalized and finite, the accumulator is cleared after every
// boundary, and an empty interval classifies consistently. A twin
// detector takes every repeat-count accumulation as that many unit
// calls, and must hold the same accumulator and classify every
// interval the same.
func FuzzDetector(f *testing.F) {
	f.Add(uint64(0), []byte{1, 2, 3, 0, 4, 5, 6, 0})
	f.Add(uint64(7), []byte{0, 0, 0, 0xff, 0xff, 0xff})
	f.Add(uint64(42), []byte{9, 200, 1, 9, 200, 1, 0, 9, 1, 1})
	f.Add(uint64(3), []byte{5, 255, 0xff, 5, 255, 0xff, 6, 1, 0x7f, 0, 0, 0, 5, 9, 0x03}) // repeats of 63, 31 and 0
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		newDetector := func() *BBVDetector {
			d := NewBBVDetector(DefaultParams(10))
			inj, err := fault.New(&fault.Plan{Seed: int64(seed), Rules: []fault.Rule{
				{Point: fault.PointBBVSignature, Kind: fault.KindBitFlip, Every: 2},
			}}, "fuzz", "bbv")
			if err != nil {
				t.Fatal(err)
			}
			d.SetFaults(inj)
			return d
		}
		d, unit := newDetector(), newDetector()

		boundaries := 0
		for len(ops) >= 3 {
			pc, instrs, op := uint64(ops[0]), int(ops[1]), ops[2]
			ops = ops[3:]
			if op%4 == 0 {
				checkTwins(t, d, unit, boundaries)
				boundaries++
				continue
			}
			pc = pc<<2 | uint64(op)<<10
			n := uint64(1)
			if op%4 == 3 {
				n = uint64(op >> 2)
			}
			d.Accumulate(pc, instrs, n)
			for i := uint64(0); i < n; i++ {
				unit.Accumulate(pc, instrs, 1)
			}
		}
		checkTwins(t, d, unit, boundaries)

		// The accumulator must be clean after a boundary: with
		// corruption disarmed, two empty intervals in a row classify
		// as the same phase.
		d.SetFaults(nil)
		a := d.Boundary()
		b := d.Boundary()
		if a != b {
			t.Errorf("empty intervals classified differently: %d then %d", a, b)
		}
	})
}

// checkTwins requires the twin detectors to hold the same accumulator
// and to classify the current interval alike, and checks d's
// post-boundary invariants.
func checkTwins(t *testing.T, d, unit *BBVDetector, soFar int) {
	t.Helper()
	if !slices.Equal(d.acc, unit.acc) {
		t.Fatalf("interval %d: repeat-count accumulator %v, unit calls %v", soFar, d.acc, unit.acc)
	}
	if id, want := checkBoundary(t, d, soFar), unit.Boundary(); id != want {
		t.Fatalf("interval %d: phase %d, unit-call twin %d", soFar, id, want)
	}
}

// checkBoundary classifies the current interval, asserts the
// detector's post-boundary invariants, and returns the phase.
func checkBoundary(t *testing.T, d *BBVDetector, soFar int) int {
	t.Helper()
	id := d.Boundary()
	if id < 0 || id > soFar {
		t.Fatalf("boundary %d returned phase %d, want 0..%d", soFar, id, soFar)
	}
	sig := d.Signature(id)
	if sig == nil || len(sig) != len(d.acc) {
		t.Fatalf("phase %d signature has length %d, want %d", id, len(sig), len(d.acc))
	}
	var sum float64
	for _, v := range sig {
		if !stats.Finite(v) || v < 0 || v > 1 {
			t.Fatalf("phase %d signature entry %v out of range", id, v)
		}
		sum += v
	}
	if sum > 1.0001 {
		t.Fatalf("phase %d signature sums to %v, want ≤ 1", id, sum)
	}
	for i, c := range d.acc {
		if c != 0 {
			t.Fatalf("accumulator bucket %d = %d after boundary, want 0", i, c)
		}
	}
	return id
}
