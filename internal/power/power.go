// Package power implements the Wattch/CACTI-style cache energy model
// the paper's evaluation charges (Section 4.1: a Wattch-based power
// model augmented to account for the power consumed by reconfiguration,
// i.e. writing dirty lines down the hierarchy).
//
// Energy is tracked per cache as
//
//	E = Σ accesses × E_access(current size)
//	  + Σ cycles-in-configuration × P_leak(size)   (leakage)
//	  + flush write-backs × E_flush-line           (reconfiguration)
//
// at the paper's operating point (1 GHz, 2 V), so 1 W of leakage is
// 1 nJ per cycle. The per-size constants follow CACTI-like scaling:
// dynamic per-access energy grows sublinearly with capacity, leakage
// linearly. L1 energy is dominated by dynamic access energy, L2 by
// leakage — which is why the paper's L2 savings track size reductions
// so closely.
package power

import (
	"fmt"
	"math"
	"sort"
)

// Model gives the energy constants for one cache across its sizes.
type Model struct {
	Name string
	// AccessNJ maps size in bytes to dynamic energy per access (nJ).
	AccessNJ map[int]float64
	// LeakNJPerCycle maps size in bytes to leakage per cycle (nJ),
	// i.e. leakage power in watts at 1 GHz.
	LeakNJPerCycle map[int]float64
	// FlushLineNJ is the energy to write one dirty line to the next
	// level during a reconfiguration flush (control + datapath; the
	// next level's access energy is charged by the hierarchy).
	FlushLineNJ float64
}

// Sizes returns the modelled sizes in ascending order.
func (m Model) Sizes() []int {
	sizes := make([]int, 0, len(m.AccessNJ))
	for s := range m.AccessNJ {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}

// Validate checks that every size has both constants and values are
// positive and monotone in size.
func (m Model) Validate() error {
	sizes := m.Sizes()
	if len(sizes) == 0 {
		return fmt.Errorf("power model %s: no sizes", m.Name)
	}
	prevA, prevL := 0.0, 0.0
	for _, s := range sizes {
		a := m.AccessNJ[s]
		l, ok := m.LeakNJPerCycle[s]
		if !ok {
			return fmt.Errorf("power model %s: size %d missing leakage", m.Name, s)
		}
		if a <= 0 || l <= 0 {
			return fmt.Errorf("power model %s: size %d has non-positive energy", m.Name, s)
		}
		if a < prevA || l < prevL {
			return fmt.Errorf("power model %s: energy not monotone in size at %d", m.Name, s)
		}
		prevA, prevL = a, l
	}
	if m.FlushLineNJ < 0 {
		return fmt.Errorf("power model %s: negative flush energy", m.Name)
	}
	return nil
}

// L1Model returns the constants for the 2-way, 64 B-block L1 caches.
// The paper's Table 2 settings are 8/16/32/64 KB; the 4 KB and 128 KB
// entries extrapolate the same CACTI-like scaling (access energy
// ×~1.4–1.5, leakage ×2 per size doubling) for the widened search
// space of internal/optimize. Constants at the paper sizes are
// untouched, so default-configuration runs are unaffected.
func L1Model(name string) Model {
	const kb = 1024
	return Model{
		Name: name,
		AccessNJ: map[int]float64{
			4 * kb:   0.21,
			8 * kb:   0.30,
			16 * kb:  0.42,
			32 * kb:  0.60,
			64 * kb:  0.90,
			128 * kb: 1.35,
		},
		LeakNJPerCycle: map[int]float64{
			4 * kb:   0.0155,
			8 * kb:   0.031,
			16 * kb:  0.062,
			32 * kb:  0.125,
			64 * kb:  0.250,
			128 * kb: 0.500,
		},
		FlushLineNJ: 0.5,
	}
}

// L2Model returns the constants for the 4-way, 128 B-block unified L2.
// The paper's Table 2 settings are 128 KB–1 MB; the 64 KB and 2 MB
// entries extrapolate the same CACTI-like scaling for the widened
// search space of internal/optimize (leakage dominates, doubling per
// size doubling). Constants at the paper sizes are untouched.
func L2Model() Model {
	const kb = 1024
	return Model{
		Name: "L2",
		AccessNJ: map[int]float64{
			64 * kb:   0.70,
			128 * kb:  1.00,
			256 * kb:  1.45,
			512 * kb:  2.05,
			1024 * kb: 3.00,
			2048 * kb: 4.40,
		},
		LeakNJPerCycle: map[int]float64{
			64 * kb:   0.09375,
			128 * kb:  0.1875,
			256 * kb:  0.375,
			512 * kb:  0.750,
			1024 * kb: 1.500,
			2048 * kb: 3.000,
		},
		FlushLineNJ: 4.0,
	}
}

// IQModel returns the constants for the configurable issue queue /
// instruction window (the extension CU the paper says it was
// implementing). Keys are window entry counts rather than bytes. The
// per-"access" energy is charged once per issued instruction (CAM
// wakeup/select scale roughly linearly with entries); draining the
// window on a resize moves no data, so the flush-line energy is zero.
func IQModel() Model {
	return Model{
		Name: "IQ",
		AccessNJ: map[int]float64{
			8:  0.025,
			16: 0.040,
			32: 0.070,
			48: 0.100,
			64: 0.130,
		},
		LeakNJPerCycle: map[int]float64{
			8:  0.010,
			16: 0.020,
			32: 0.040,
			48: 0.060,
			64: 0.080,
		},
		FlushLineNJ: 0,
	}
}

// Meter accumulates one cache's energy as the machine runs. The meter
// must be told about every size change (SetSize) so leakage is charged
// at the right rate per configuration epoch, and must be finalized
// with the end-of-run cycle count before reading totals.
type Meter struct {
	model Model

	dynNJ   float64
	leakNJ  float64
	flushNJ float64

	curSize     int
	curAccessNJ float64
	curLeakNJ   float64
	epochStart  uint64
}

// NewMeter constructs a meter for a cache starting at startSize.
func NewMeter(model Model, startSize int) (*Meter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if _, ok := model.AccessNJ[startSize]; !ok {
		return nil, fmt.Errorf("power meter %s: unmodelled start size %d", model.Name, startSize)
	}
	m := &Meter{model: model}
	m.setSize(startSize, 0)
	return m, nil
}

// MustNewMeter is NewMeter that panics on error.
func MustNewMeter(model Model, startSize int) *Meter {
	m, err := NewMeter(model, startSize)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Meter) setSize(size int, nowCycles uint64) {
	m.curSize = size
	m.curAccessNJ = m.model.AccessNJ[size]
	m.curLeakNJ = m.model.LeakNJPerCycle[size]
	m.epochStart = nowCycles
}

// Access charges one access at the current size.
func (m *Meter) Access() { m.dynNJ += m.curAccessNJ }

// AccessN charges n accesses at the current size.
func (m *Meter) AccessN(n uint64) { m.dynNJ += float64(n) * m.curAccessNJ }

// AccessRepeat charges n accesses with the float total n sequential
// Access calls would reach, bit for bit. Unlike AccessN's single
// fused multiply-add, the result depends only on the number of
// accesses, not on how they are grouped into calls — the batched issue
// and replay paths use it so a run charged in one call accumulates
// exactly the per-instruction reference path's total, keeping batched,
// stepped and replayed modes byte-identical in every energy readout.
// It costs O(1) per binade the total crosses, not O(n) (see repeatAdd).
func (m *Meter) AccessRepeat(n uint64) { m.dynNJ = repeatAdd(m.dynNJ, m.curAccessNJ, n) }

// Float64 layout, for repeatAdd's integer stepping.
const (
	fracBits = 52
	fracMask = 1<<fracBits - 1
	expMask  = 0x7ff
	hidden   = 1 << fracBits // the implicit leading significand bit
)

// repeatAdd returns the result of n sequential additions d += c, bit
// for bit, without performing them one at a time.
//
// While the running total stays inside one binade [2^e, 2^(e+1)) it is
// an integer multiple m of that binade's ulp u, and the exact sum
// m·u + c rounds to (m + round(c/u))·u: rounding to nearest picks the
// same step s = round(c/u) on every add, unless c/u is exactly a
// half-integer, where ties-to-even makes the step depend on m's parity.
// A stretch of adds that keeps every exact sum below 2^(e+1) is
// therefore one integer step m += k·s, computed on the significands
// alone. The rest takes single adds: the add that crosses into the
// next binade, a tie, short counts (n < 16), totals still below c
// (which covers a zero start), and subnormal, infinite or NaN operands.
func repeatAdd(d, c float64, n uint64) float64 {
	cb := math.Float64bits(c)
	ec := cb >> fracBits & expMask
	if n < 16 || cb>>63 != 0 || ec == 0 || ec == expMask {
		// Short, negative or zero, subnormal, infinite or NaN c.
		for ; n > 0; n-- {
			d += c
		}
		return d
	}
	mc := cb&fracMask | hidden
	for n > 0 {
		if !(d >= c) {
			// Below c (zero and negative starts), or NaN.
			d += c
			n--
			continue
		}
		db := math.Float64bits(d)
		e := db >> fracBits & expMask
		if e == expMask {
			// +Inf absorbs every add.
			for ; n > 0; n-- {
				d += c
			}
			return d
		}
		// d ≥ c > 0 and c is normal, so d is normal too and e ≥ ec.
		var s uint64
		if shift := e - ec; shift == 0 {
			s = mc
		} else if shift < fracBits+2 {
			s = mc >> shift
			rem, half := mc&(1<<shift-1), uint64(1)<<(shift-1)
			if rem == half {
				// A tie: the rounding direction alternates with m's
				// parity, so take this add on its own.
				d += c
				n--
				continue
			}
			if rem > half {
				s++
			}
		} else {
			// c/u < 2^53/2^54 = 1/2: every add rounds back to d.
			return d
		}
		if s == 0 {
			return d
		}
		m := db&fracMask | hidden
		// Steps that keep m + k·s ≤ 2^53−1: each exact sum stays below
		// m + s + 1/2 < 2^53, inside the binade.
		k := min(n, (2*hidden-1-m)/s)
		if k == 0 {
			d += c // crosses into the next binade
			n--
			continue
		}
		m += k * s
		n -= k
		d = math.Float64frombits(e<<fracBits | m&fracMask)
	}
	return d
}

// FlushWritebacks charges the reconfiguration flush of n dirty lines.
func (m *Meter) FlushWritebacks(n int) { m.flushNJ += float64(n) * m.model.FlushLineNJ }

// SetSize closes the current leakage epoch at nowCycles and switches
// the meter to the new size. It returns an error for unmodelled sizes.
func (m *Meter) SetSize(size int, nowCycles uint64) error {
	if _, ok := m.model.AccessNJ[size]; !ok {
		return fmt.Errorf("power meter %s: unmodelled size %d", m.model.Name, size)
	}
	m.accrueLeak(nowCycles)
	m.setSize(size, nowCycles)
	return nil
}

func (m *Meter) accrueLeak(nowCycles uint64) {
	if nowCycles > m.epochStart {
		m.leakNJ += float64(nowCycles-m.epochStart) * m.curLeakNJ
	}
	m.epochStart = nowCycles
}

// Finalize charges leakage up to nowCycles. It may be called multiple
// times with nondecreasing cycle counts (each call charges the delta).
func (m *Meter) Finalize(nowCycles uint64) { m.accrueLeak(nowCycles) }

// CurrentSize returns the size the meter is charging at.
func (m *Meter) CurrentSize() int { return m.curSize }

// Totals breaks down accumulated energy in nanojoules.
type Totals struct {
	DynamicNJ float64
	LeakageNJ float64
	FlushNJ   float64
}

// TotalNJ returns the sum of all components.
func (t Totals) TotalNJ() float64 { return t.DynamicNJ + t.LeakageNJ + t.FlushNJ }

// Totals returns the accumulated energy. Call Finalize first so
// leakage includes the final epoch.
func (m *Meter) Totals() Totals {
	return Totals{DynamicNJ: m.dynNJ, LeakageNJ: m.leakNJ, FlushNJ: m.flushNJ}
}

// TotalsAt returns the accumulated energy with leakage charged up to
// nowCycles, without closing the current leakage epoch: unlike
// Finalize followed by Totals, it leaves the meter as it was, so a
// read cannot split an epoch's leakage into two rounded adds.
func (m *Meter) TotalsAt(nowCycles uint64) Totals {
	t := m.Totals()
	if nowCycles > m.epochStart {
		t.LeakageNJ += float64(nowCycles-m.epochStart) * m.curLeakNJ
	}
	return t
}
