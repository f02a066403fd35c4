package cpu

// Timing is the analytic cycle model for the simulated 4-wide
// out-of-order core. Rather than simulating every pipeline structure,
// it accumulates the first-order cycle components the paper's results
// depend on:
//
//	cycles = instructions / issue width
//	       + mispredictions × misprediction penalty
//	       + exposed memory stall cycles
//	       + reconfiguration flush cycles
//
// Miss penalties are multiplied by an exposure factor that stands in
// for the latency an out-of-order window cannot hide. The model is
// execution-driven: every component is fed by real simulated events.
type Timing struct {
	cfg TimingConfig

	// slots accumulates issue-slot occupancy in units of 1
	// instruction; cycles due to issue = slots / IssueWidth.
	slots uint64

	stallCycles   uint64 // memory + TLB stalls, already exposure-scaled
	branchCycles  uint64
	reconfCycles  uint64
	stallsL1      uint64 // L1 miss events charged
	stallsL2      uint64 // L2 miss events charged
	stallsTLB     uint64
	mispredicts   uint64
	reconfEvents  uint64
	reconfWriteBk uint64

	// windowMult scales exposed miss latency for the current
	// instruction-window size: a smaller window extracts less
	// memory-level parallelism, exposing more of each miss. 1.0 at
	// the full window.
	windowMult float64
}

// TimingConfig holds the core and memory latencies (paper Table 2).
type TimingConfig struct {
	IssueWidth int // instructions per cycle, 4

	MispredictPenalty uint64 // 3 cycles

	L2HitLatency  uint64 // charged on an L1 miss that hits in L2: 10
	MemLatency    uint64 // charged on an L2 miss: 100
	TLBMissCycles uint64 // 30

	// L2Exposure and MemExposure scale the raw penalties to model
	// the fraction of latency the out-of-order window cannot hide
	// given the 64-entry window's memory-level parallelism (cache
	// misses to independent lines overlap substantially).
	L2Exposure  float64 // 0.55
	MemExposure float64 // 0.45

	// WritebackCycles is the per-line cost of a reconfiguration
	// flush write-back; ResizeFixedCycles is charged once per
	// resize (control-register write, array settle).
	WritebackCycles   uint64
	ResizeFixedCycles uint64
}

// DefaultTimingConfig returns the paper's Table 2 latencies with the
// overlap model documented in DESIGN.md.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		IssueWidth:        4,
		MispredictPenalty: 3,
		L2HitLatency:      10,
		MemLatency:        100,
		TLBMissCycles:     30,
		L2Exposure:        0.55,
		MemExposure:       0.45,
		WritebackCycles:   4,
		ResizeFixedCycles: 100,
	}
}

// NewTiming constructs a timing model. Zero-valued config fields are
// replaced with defaults.
func NewTiming(cfg TimingConfig) *Timing {
	def := DefaultTimingConfig()
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = def.IssueWidth
	}
	if cfg.L2Exposure <= 0 {
		cfg.L2Exposure = def.L2Exposure
	}
	if cfg.MemExposure <= 0 {
		cfg.MemExposure = def.MemExposure
	}
	return &Timing{cfg: cfg, windowMult: 1}
}

// SetWindow adjusts the instruction-window model: with `entries` of a
// `base`-entry window enabled, exposed miss latency scales by
// 1 + 0.8×(1 − entries/base) — a quarter-size window exposes ~60%
// more of each miss because fewer independent misses overlap.
func (t *Timing) SetWindow(entries, base int) {
	if base <= 0 || entries <= 0 || entries > base {
		t.windowMult = 1
		return
	}
	t.windowMult = 1 + 0.8*(1-float64(entries)/float64(base))
}

// WindowMult returns the current window exposure multiplier.
func (t *Timing) WindowMult() float64 { return t.windowMult }

// Config returns the timing configuration in use.
func (t *Timing) Config() TimingConfig { return t.cfg }

// Issue charges n instructions of issue bandwidth.
func (t *Timing) Issue(n uint64) { t.slots += n }

// Mispredict charges one branch misprediction.
func (t *Timing) Mispredict() {
	t.mispredicts++
	t.branchCycles += t.cfg.MispredictPenalty
}

// L1Miss charges an L1 miss that hit in L2.
func (t *Timing) L1Miss() {
	t.stallsL1++
	t.stallCycles += scale(t.cfg.L2HitLatency, t.cfg.L2Exposure*t.windowMult)
}

// L2Miss charges an L2 miss (memory access). The preceding L1 miss
// must be charged separately by the caller via L1Miss.
func (t *Timing) L2Miss() {
	t.stallsL2++
	t.stallCycles += scale(t.cfg.MemLatency, t.cfg.MemExposure*t.windowMult)
}

// TLBMiss charges one TLB miss.
func (t *Timing) TLBMiss() {
	t.stallsTLB++
	t.stallCycles += scale(t.cfg.TLBMissCycles, t.windowMult)
}

// MispredictN charges n branch mispredictions in one call. The
// per-event penalty is a constant, so the bulk charge equals n
// sequential Mispredict calls exactly. n == 0 returns immediately —
// the replay fast path calls the N-variants unconditionally.
func (t *Timing) MispredictN(n uint64) {
	if n == 0 {
		return
	}
	t.mispredicts += n
	t.branchCycles += n * t.cfg.MispredictPenalty
}

// TLBMissN charges n TLB misses in one call. The per-event exposed
// latency is a pure function of the configuration and the current
// window multiplier — both constant between reconfiguration
// boundaries — so the bulk charge is bit-exact with n sequential
// TLBMiss calls.
func (t *Timing) TLBMissN(n uint64) {
	if n == 0 {
		return
	}
	t.stallsTLB += n
	t.stallCycles += n * scale(t.cfg.TLBMissCycles, t.windowMult)
}

// Reconfigure charges one cache resize that flushed writebacks dirty
// lines.
func (t *Timing) Reconfigure(writebacks int) {
	t.reconfEvents++
	t.reconfWriteBk += uint64(writebacks)
	t.reconfCycles += t.cfg.ResizeFixedCycles + uint64(writebacks)*t.cfg.WritebackCycles
}

// ReconfigureStall charges extra drain cycles to the current resize —
// a transient hardware stall beyond the modelled flush cost (the
// fault-injection harness's resize point).
func (t *Timing) ReconfigureStall(cycles uint64) {
	t.reconfCycles += cycles
}

func scale(cycles uint64, factor float64) uint64 {
	return uint64(float64(cycles) * factor)
}

// Cycles returns the total cycle count so far.
func (t *Timing) Cycles() uint64 {
	issue := (t.slots + uint64(t.cfg.IssueWidth) - 1) / uint64(t.cfg.IssueWidth)
	return issue + t.stallCycles + t.branchCycles + t.reconfCycles
}

// Breakdown reports the cycle components for diagnostics.
type Breakdown struct {
	IssueCycles     uint64
	StallCycles     uint64
	BranchCycles    uint64
	ReconfCycles    uint64
	L1Misses        uint64
	L2Misses        uint64
	TLBMisses       uint64
	Mispredicts     uint64
	Reconfigs       uint64
	FlushWritebacks uint64
}

// Breakdown returns the current cycle components.
func (t *Timing) Breakdown() Breakdown {
	return Breakdown{
		IssueCycles:     (t.slots + uint64(t.cfg.IssueWidth) - 1) / uint64(t.cfg.IssueWidth),
		StallCycles:     t.stallCycles,
		BranchCycles:    t.branchCycles,
		ReconfCycles:    t.reconfCycles,
		L1Misses:        t.stallsL1,
		L2Misses:        t.stallsL2,
		TLBMisses:       t.stallsTLB,
		Mispredicts:     t.mispredicts,
		Reconfigs:       t.reconfEvents,
		FlushWritebacks: t.reconfWriteBk,
	}
}
