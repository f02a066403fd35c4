// Package wss implements Dhodapkar & Smith's working-set-signature
// phase detector ("Managing Multi-Configuration Hardware via Dynamic
// Working Set Analysis", ISCA 2002) — the other major temporal
// detection mechanism the paper's Section 2.2 surveys ("instruction
// working sets [9]"). Plugged into the temporal-scheme manager of
// internal/bbv (whose tuning algorithm is already the one prescribed
// by the same paper), it completes the comparison of [10] ("Comparing
// Program Phase Detection Techniques"): BBV against working-set
// signatures against the hotspot framework.
//
// A working set signature is a lossy bit-vector summary of the
// instruction working set: during an interval, every executed basic
// block sets one bit selected by a hash of its address. At the
// interval boundary the relative signature distance
//
//	δ(A, B) = |A xor B| / |A or B|
//
// decides recurrence: the nearest stored phase signature with δ below
// the threshold wins; otherwise a new phase is created. Dhodapkar &
// Smith used 1024-bit signatures with δ ≈ 0.5.
package wss

import (
	"fmt"
	"math/bits"

	"acedo/internal/bbv"
	"acedo/internal/machine"
)

// Params configures the detector.
type Params struct {
	// SignatureBits is the signature size (power of two; 1024 in
	// the original paper).
	SignatureBits int
	// Threshold is the relative-signature-distance δ above which an
	// interval starts a new phase (0.5 in the original paper).
	Threshold float64
}

// DefaultParams returns Dhodapkar & Smith's configuration.
func DefaultParams() Params {
	return Params{SignatureBits: 1024, Threshold: 0.5}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.SignatureBits <= 0 || p.SignatureBits&(p.SignatureBits-1) != 0 {
		return fmt.Errorf("wss: signature bits %d must be a positive power of two", p.SignatureBits)
	}
	if p.Threshold <= 0 || p.Threshold > 1 {
		return fmt.Errorf("wss: threshold %v out of (0,1]", p.Threshold)
	}
	return nil
}

// signature is a fixed bit vector.
type signature []uint64

func newSignature(bits int) signature { return make(signature, bits/64) }

func (s signature) set(i uint64) { s[(i/64)%uint64(len(s))] |= 1 << (i % 64) }

func (s signature) reset() {
	for i := range s {
		s[i] = 0
	}
}

func (s signature) clone() signature {
	out := make(signature, len(s))
	copy(out, s)
	return out
}

// Distance returns the relative signature distance δ(a, b) =
// |a xor b| / |a or b| (0 for two empty signatures).
func Distance(a, b signature) float64 {
	var xor, or int
	for i := range a {
		xor += bits.OnesCount64(a[i] ^ b[i])
		or += bits.OnesCount64(a[i] | b[i])
	}
	if or == 0 {
		return 0
	}
	return float64(xor) / float64(or)
}

// Detector implements bbv.Detector with working-set signatures.
type Detector struct {
	params Params

	acc        signature
	signatures []signature
}

var _ bbv.Detector = (*Detector)(nil)

// NewDetector constructs the detector.
func NewDetector(params Params) (*Detector, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Detector{params: params, acc: newSignature(params.SignatureBits)}, nil
}

// MustNewDetector is NewDetector that panics on error.
func MustNewDetector(params Params) *Detector {
	d, err := NewDetector(params)
	if err != nil {
		panic(err)
	}
	return d
}

// Name identifies the detector.
func (d *Detector) Name() string { return "wss" }

// Accumulate hashes the executed block's address into the signature
// when n > 0. The instruction count and the repeat count are
// irrelevant: working sets record membership, not weight — one of the
// representational differences from BBVs.
func (d *Detector) Accumulate(pc uint64, instrs int, n uint64) {
	if n > 0 {
		d.acc.set(hash(pc))
	}
}

// hash mixes the block address so nearby blocks spread across the
// signature (Dhodapkar & Smith used a random projection; a 64-bit
// finalizer is an adequate stand-in).
func hash(pc uint64) uint64 {
	pc ^= pc >> 33
	pc *= 0xff51afd7ed558ccd
	pc ^= pc >> 33
	return pc
}

// Boundary classifies the finished interval by relative signature
// distance against every stored phase signature.
func (d *Detector) Boundary() int {
	best := -1
	bestD := d.params.Threshold
	for id, sig := range d.signatures {
		if dist := Distance(d.acc, sig); dist < bestD {
			best = id
			bestD = dist
		}
	}
	if best < 0 {
		d.signatures = append(d.signatures, d.acc.clone())
		best = len(d.signatures) - 1
	}
	d.acc.reset()
	return best
}

// NewManager constructs the temporal-scheme manager (stability
// tracking + all-combinations tuner, from internal/bbv) driven by the
// working-set-signature detector. Install the returned manager as the
// engine's block listener.
func NewManager(schemeParams bbv.Params, detParams Params, mach *machine.Machine) (*bbv.Manager, error) {
	det, err := NewDetector(detParams)
	if err != nil {
		return nil, err
	}
	return bbv.NewManagerWithDetector(schemeParams, mach, det)
}
