package bbv

import (
	"math/bits"
	"slices"

	"acedo/internal/fault"
)

// BBVDetector is the Basic Block Vector phase detector (Sherwood et
// al.), configured per the paper's Section 4.1: an accumulator table
// of 32 uncompressed 24-bit buckets indexed by basic-block PC bits
// (excluding the two least significant), an unlimited number of stored
// signatures, and Manhattan-distance matching over fraction-normalized
// vectors.
type BBVDetector struct {
	buckets   int
	bucketMax uint32
	threshold float64

	acc        []uint32
	signatures [][]float64

	// vec is the scratch vector each boundary normalizes into; only a
	// new phase keeps a copy of it as its signature.
	vec []float64

	// faults, when non-nil, may flip accumulator bits at interval
	// boundaries — corrupting the interval vector and any signature
	// stored from it (the bbv-signature injection point).
	faults *fault.Injector
}

var _ Detector = (*BBVDetector)(nil)

// NewBBVDetector constructs the detector from the scheme parameters.
func NewBBVDetector(params Params) *BBVDetector {
	return &BBVDetector{
		buckets:   params.Buckets,
		bucketMax: uint32(1)<<params.BucketBits - 1,
		threshold: params.MatchThreshold,
		acc:       make([]uint32, params.Buckets),
		vec:       make([]float64, params.Buckets),
	}
}

// Name identifies the detector.
func (d *BBVDetector) Name() string { return "bbv" }

// SetFaults installs (or, with nil, removes) a fault injector for the
// signature-corruption point.
func (d *BBVDetector) SetFaults(inj *fault.Injector) { d.faults = inj }

// Accumulate charges n executions of the block to a bucket selected
// by its PC; counters saturate at the configured width. A saturating
// add of non-negative values does not depend on how they are grouped,
// so one call with n equals n calls with 1.
func (d *BBVDetector) Accumulate(pc uint64, instrs int, n uint64) {
	i := (pc >> 2) & uint64(d.buckets-1)
	hi, add := bits.Mul64(uint64(instrs), n)
	if c := uint64(d.acc[i]) + add; hi == 0 && add <= uint64(d.bucketMax) && c <= uint64(d.bucketMax) {
		d.acc[i] = uint32(c)
	} else {
		d.acc[i] = d.bucketMax
	}
}

// Boundary classifies the finished interval: the normalized vector is
// matched against every stored signature; the nearest one within the
// threshold wins, otherwise a new phase is created with this vector as
// its signature.
func (d *BBVDetector) Boundary() int {
	if d.faults != nil {
		d.faults.CorruptBBV(d.acc)
	}
	vec := d.normalize()
	for i := range d.acc {
		d.acc[i] = 0
	}
	best := -1
	bestD := d.threshold
	for id, sig := range d.signatures {
		if dist := Manhattan(vec, sig); dist < bestD {
			best = id
			bestD = dist
		}
	}
	if best >= 0 {
		return best
	}
	d.signatures = append(d.signatures, slices.Clone(vec))
	return len(d.signatures) - 1
}

// Signature returns a stored phase signature (for inspection/tests).
func (d *BBVDetector) Signature(id int) []float64 {
	if id < 0 || id >= len(d.signatures) {
		return nil
	}
	return d.signatures[id]
}

// normalize converts the accumulator to a fraction vector in the
// detector's scratch vector, valid until the next boundary.
func (d *BBVDetector) normalize() []float64 {
	var sum uint64
	for _, c := range d.acc {
		sum += uint64(c)
	}
	vec := d.vec
	if sum == 0 {
		clear(vec)
		return vec
	}
	for i, c := range d.acc {
		vec[i] = float64(c) / float64(sum)
	}
	return vec
}

// Manhattan returns the L1 distance between two equal-length vectors.
func Manhattan(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d
}
