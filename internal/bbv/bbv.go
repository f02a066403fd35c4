// Package bbv implements the comparator resource-adaptation scheme:
// Basic Block Vector phase tracking (Sherwood et al.) combined with
// the all-combinations tuning algorithm of Dhodapkar & Smith — the
// "best technique that prior literature can contribute" the paper
// compares against (Section 5.2).
//
// The implementation follows the paper's Section 4.1 configuration:
// an accumulator table of 32 uncompressed 24-bit buckets indexed by
// basic-block PC bits, an unlimited number of stored signatures,
// Manhattan-distance matching, stable/transitional classification
// (stable = the same phase for two or more consecutive intervals),
// per-phase tuning-state storage with resume, and no next-phase
// predictor. Transitional intervals run the full-size configuration.
package bbv

import (
	"fmt"
	"sort"

	"acedo/internal/ace"
	"acedo/internal/fault"
	"acedo/internal/machine"
	"acedo/internal/stats"
	"acedo/internal/telemetry"
)

// Params configures the BBV scheme.
type Params struct {
	// IntervalInstr is the sampling interval in instructions. The
	// paper sets it to the largest CU reconfiguration interval
	// (the L2's 1 M instructions; scaled per DESIGN.md §4).
	IntervalInstr uint64

	// Buckets is the accumulator table size (32).
	Buckets int

	// BucketBits is the counter width (24); counters saturate.
	BucketBits uint

	// MatchThreshold is the maximum relative Manhattan distance
	// (on fraction-normalized vectors, range [0,2]) for an interval
	// to match a known phase signature.
	MatchThreshold float64

	// StableRun is the run length at which a phase becomes stable
	// and eligible for adaptation (2).
	StableRun int

	// PerfThreshold disqualifies configurations that degrade IPC by
	// more than this fraction versus the all-largest measurement,
	// mirroring the hotspot tuner's objective.
	PerfThreshold float64

	// UsePredictor enables the RLE Markov next-phase predictor (the
	// aggressive BBV variant the paper's Section 4.1 deliberately
	// omits). Off by default, matching the paper's comparator.
	UsePredictor bool

	// OscillationWindow is the temporal oscillation watchdog: after
	// this many consecutive interval boundaries that each changed
	// phase (the detector thrashing, e.g. under signature
	// corruption), the manager degrades — it pins the units to the
	// full-size safe configuration, stops tuning, and emits one
	// TypeDegraded event. Phase classification continues for the
	// run's statistics. 0 disables the watchdog. The default (24)
	// sits above the longest flip streak any suite benchmark
	// exhibits (15, javac), so healthy runs never trip it.
	OscillationWindow int
}

// DefaultParams returns the paper's BBV configuration at the given
// scale divisor.
func DefaultParams(scaleDiv uint64) Params {
	if scaleDiv == 0 {
		scaleDiv = 1
	}
	return Params{
		IntervalInstr:  1_000_000 / scaleDiv,
		Buckets:        32,
		BucketBits:     24,
		MatchThreshold: 0.40,
		StableRun:      2,
		PerfThreshold:  0.02,

		OscillationWindow: 24,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.IntervalInstr == 0 {
		return fmt.Errorf("bbv: interval must be positive")
	}
	if p.Buckets <= 0 || p.Buckets&(p.Buckets-1) != 0 {
		return fmt.Errorf("bbv: buckets %d must be a positive power of two", p.Buckets)
	}
	if p.BucketBits == 0 || p.BucketBits > 32 {
		return fmt.Errorf("bbv: bucket width %d out of (0,32]", p.BucketBits)
	}
	if p.MatchThreshold <= 0 || p.MatchThreshold > 2 {
		return fmt.Errorf("bbv: match threshold %v out of (0,2]", p.MatchThreshold)
	}
	if p.StableRun < 2 {
		return fmt.Errorf("bbv: stable run %d must be at least 2", p.StableRun)
	}
	if p.OscillationWindow < 0 {
		return fmt.Errorf("bbv: oscillation window %d must be non-negative", p.OscillationWindow)
	}
	return nil
}

// Phase is one recognized BBV phase and its tuning storage (the
// paper's concession: "a phase's basic block vector information and
// tuning results are stored. Hence, a recurring phase can use its
// chosen configuration if available, or resume its tuning from the
// last tested configuration").
type Phase struct {
	ID int

	// Intervals counts sampling intervals classified as this phase.
	Intervals uint64
	// StableIntervals counts those belonging to runs of length ≥
	// StableRun (retrospectively, for Figure 1).
	StableIntervals uint64

	// Tuning state over the combinatorial configuration list.
	next    int
	meas    []measurement
	Done    bool
	bestPos int

	// IPCW accumulates per-interval IPCs (Table 5's per-phase CoV).
	IPCW stats.Welford
}

type measurement struct {
	valid bool
	ipc   float64
	epi   float64
}

// appliedKind records what the manager configured an interval for.
type appliedKind int

const (
	appliedNone appliedKind = iota // full size (transitional/unknown)
	appliedTest                    // testing a configuration for a phase
	appliedBest                    // running a tuned phase's best config
)

// Detector is the pluggable phase-detection half of a temporal scheme
// (paper Section 2: "most resource adaptation schemes have two
// components: a phase detection mechanism ... and a tuning
// algorithm"). The manager supplies the tuning algorithm; a Detector
// supplies the per-interval classification. Implementations: the BBV
// detector here and the working-set-signature detector in
// internal/wss.
type Detector interface {
	// Accumulate observes n executions of one basic block; one call
	// must equal n calls with n = 1.
	Accumulate(pc uint64, instrs int, n uint64)
	// Boundary classifies the finished interval into a phase ID
	// (dense, starting at 0; a new ID grows the phase table) and
	// resets the accumulator for the next interval.
	Boundary() int
	// Name identifies the detector in reports.
	Name() string
}

// Manager is the temporal-scheme ACE manager: a Detector classifies
// each sampling interval; the manager supplies stability tracking, the
// all-combinations tuner with resume, and the configuration of the
// machine's units at interval boundaries.
type Manager struct {
	params    Params
	mach      *machine.Machine
	units     []*ace.Unit
	combos    [][]int
	groupSize int // combos per innermost-unit group

	det        Detector
	nextBound  uint64
	lastSnap   machine.Snapshot
	phases     []*Phase
	lastPhase  int // phase ID of previous interval, -1 initially
	runLength  int
	intervalNo uint64

	// Oscillation watchdog state: consecutive phase-flip boundaries
	// and whether the manager has degraded to the pinned safe
	// configuration.
	flipRun  int
	degraded bool

	// What the current (in-flight) interval was configured for.
	appliedKind  appliedKind
	appliedPhase int
	appliedPos   int
	// warmup marks a test interval that began with a configuration
	// change: its caches start flushed, so its measurement is
	// discarded and the configuration re-tested (DESIGN.md §4).
	warmup bool

	// pred is the optional next-phase predictor.
	pred *Predictor

	// sink, when non-nil, observes interval classifications and
	// phase tuning completions.
	sink telemetry.Sink

	stats ManagerStats
}

// ManagerStats aggregates the counters Tables 5/6 report for BBV.
type ManagerStats struct {
	Intervals           uint64
	StableIntervals     uint64 // retrospective, Figure 1
	TransitionalIntervs uint64
	Tunings             uint64 // configuration-test measurements recorded
	Reconfigs           uint64 // accepted best-config unit changes
	CoveredInstr        uint64 // instructions in intervals run under a tuned phase's best config
	IntervalsInTuned    uint64 // intervals whose phase eventually finished tuning (computed at Report)
	CorruptSamples      uint64 // interval measurements discarded by the NaN/Inf guard
}

// NewManager constructs the BBV manager bound to a machine. Install
// it as the engine's block listener.
func NewManager(params Params, mach *machine.Machine) (*Manager, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return NewManagerWithDetector(params, mach, NewBBVDetector(params))
}

// NewManagerWithDetector constructs the temporal-scheme manager with a
// custom phase detector (e.g. wss.NewDetector). The Params'
// BBV-specific fields (Buckets, BucketBits, MatchThreshold) are unused
// by custom detectors.
func NewManagerWithDetector(params Params, mach *machine.Machine, det Detector) (*Manager, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if det == nil {
		return nil, fmt.Errorf("bbv: nil detector")
	}
	// Order units so the highest-overhead unit varies slowest in the
	// combination list: the descent then explores cheap (L1D) size
	// reductions within each L2 size before committing to a smaller
	// L2, and the threshold abort prunes sensibly (a failing group
	// head means the L2 itself is too small).
	units := mach.Units()
	sort.SliceStable(units, func(i, j int) bool {
		return units[i].Interval() > units[j].Interval()
	})
	m := &Manager{
		params:       params,
		mach:         mach,
		units:        units,
		combos:       ace.Combinations(units),
		groupSize:    units[len(units)-1].NumSettings(),
		det:          det,
		nextBound:    params.IntervalInstr,
		lastPhase:    -1,
		appliedKind:  appliedNone,
		appliedPhase: -1,
	}
	if params.UsePredictor {
		m.pred = NewPredictor()
	}
	m.lastSnap = mach.Snapshot()
	return m, nil
}

// Params returns the scheme parameters.
func (m *Manager) Params() Params { return m.params }

// SetSink installs a telemetry sink observing the detector's interval
// classifications and the tuner's phase completions. Pass nil to
// remove it. Install before running the engine.
func (m *Manager) SetSink(s telemetry.Sink) { m.sink = s }

// faultable is implemented by detectors that accept fault injection
// (BBVDetector's signature-corruption point).
type faultable interface {
	SetFaults(*fault.Injector)
}

// SetFaults forwards a fault injector to the detector when it supports
// injection. Install before running the engine.
func (m *Manager) SetFaults(inj *fault.Injector) {
	if f, ok := m.det.(faultable); ok {
		f.SetFaults(inj)
	}
}

// Degraded reports whether the oscillation watchdog tripped.
func (m *Manager) DegradedState() bool { return m.degraded }

// configValues translates a combination index into setting values in
// the manager's unit order.
func (m *Manager) configValues(pos int) []int {
	cfg := m.combos[pos]
	vals := make([]int, len(cfg))
	for i, u := range m.units {
		vals[i] = u.Setting(cfg[i])
	}
	return vals
}

// Phases returns the recognized phases in discovery order.
func (m *Manager) Phases() []*Phase { return m.phases }

// BestConfigOf returns a phase's selected setting-index vector, or nil
// if the phase has not finished tuning.
func (m *Manager) BestConfigOf(ph *Phase) []int {
	if !ph.Done {
		return nil
	}
	return m.combos[ph.bestPos]
}

// Detector returns the phase detector in use.
func (m *Manager) Detector() Detector { return m.det }

// OnBlock feeds the detector's accumulator hardware and checks the
// interval timer. The manager is a vm.BlockListener: install it as the
// engine's block listener.
func (m *Manager) OnBlock(pc uint64, instrs int) {
	m.det.Accumulate(pc, instrs, 1)
	if m.mach.Instructions() >= m.nextBound {
		m.boundary()
	}
}

// Accumulate feeds n entries of one block below Due to the detector
// (vm.BlockListener).
func (m *Manager) Accumulate(pc uint64, instrs int, n uint64) {
	m.det.Accumulate(pc, instrs, n)
}

// Due is the interval timer's next bound: a block entry before it only
// accumulates (vm.BlockListener).
func (m *Manager) Due() uint64 { return m.nextBound }

// boundary closes the finished interval: classify it, record any
// tuning measurement, update phase-run bookkeeping, and configure the
// units for the next interval.
func (m *Manager) boundary() {
	m.nextBound = m.mach.Instructions() + m.params.IntervalInstr
	m.intervalNo++
	m.stats.Intervals++

	snap := m.mach.Snapshot()
	d := machine.Delta(m.lastSnap, snap)
	m.lastSnap = snap

	phaseID := m.det.Boundary()
	for phaseID >= len(m.phases) {
		m.phases = append(m.phases, &Phase{
			ID:   len(m.phases),
			meas: make([]measurement, len(m.combos)),
		})
	}
	ph := m.phases[phaseID]
	ph.Intervals++
	if d.Instr > 0 && stats.Finite(d.IPC()) {
		ph.IPCW.Add(d.IPC())
	}

	// Run bookkeeping (retrospective stability for Figure 1).
	if phaseID == m.lastPhase {
		m.runLength++
		m.flipRun = 0
		if m.runLength == m.params.StableRun {
			// The whole run just became stable, including the
			// earlier intervals.
			m.stats.StableIntervals += uint64(m.params.StableRun)
			ph.StableIntervals += uint64(m.params.StableRun)
		} else if m.runLength > m.params.StableRun {
			m.stats.StableIntervals++
			ph.StableIntervals++
		}
	} else {
		if m.lastPhase >= 0 {
			m.flipRun++
		}
		m.lastPhase = phaseID
		m.runLength = 1
	}
	stable := m.runLength >= m.params.StableRun
	if m.sink != nil {
		m.sink.Emit(telemetry.Event{
			Type:  telemetry.TypePhase,
			Instr: m.mach.Instructions(),
			Phase: &telemetry.PhaseEvent{Phase: phaseID, Stable: stable, IPC: d.IPC()},
		})
	}
	if m.pred != nil {
		m.pred.Observe(phaseID, m.runLength)
	}

	// Attribute the finished interval's measurement. A tuning test
	// is valid only when the interval turned out to be the phase it
	// was configured for.
	switch m.appliedKind {
	case appliedTest:
		if !m.warmup && m.appliedPhase == phaseID && !ph.Done && m.appliedPos == ph.next && d.Instr > 0 {
			epi := (d.L1DnJ + d.L2nJ) / float64(d.Instr)
			if !stats.Finite(d.IPC()) || !stats.Finite(epi) {
				// A corrupted measurement must never enter the
				// tuner's acceptance math; re-test the
				// configuration next stable interval.
				m.stats.CorruptSamples++
				break
			}
			ph.meas[ph.next] = measurement{
				valid: true,
				ipc:   d.IPC(),
				epi:   epi,
			}
			m.stats.Tunings++
			ref := ph.meas[0]
			failed := ref.valid && ph.next > 0 && d.IPC() < (1-m.tolerance(ph))*ref.ipc
			switch {
			case !failed:
				ph.next++
			case ph.next%m.groupSize == 0:
				// The group head (innermost unit at its
				// largest) failed: the outer unit itself is
				// too small — the threshold is reached.
				ph.next = len(m.combos)
			default:
				// Skip the rest of this group; try the next
				// outer-unit setting.
				ph.next = (ph.next/m.groupSize + 1) * m.groupSize
			}
			if ph.next >= len(m.combos) {
				m.finishPhase(ph)
			}
		}
	case appliedBest:
		if m.appliedPhase == phaseID {
			m.stats.CoveredInstr += d.Instr
		}
	}

	// Oscillation watchdog: a long enough streak of phase-flipping
	// boundaries means the detector is thrashing (corrupted
	// signatures, pathological workload) and every reconfiguration
	// it drives is wasted work. Degrade once: pin the full-size
	// safe configuration and stop adapting for the rest of the run.
	now := m.mach.Instructions()
	if !m.degraded && m.params.OscillationWindow > 0 && m.flipRun >= m.params.OscillationWindow {
		m.degraded = true
		if m.sink != nil {
			m.sink.Emit(telemetry.Event{
				Type:  telemetry.TypeDegraded,
				Instr: now,
				Degraded: &telemetry.DegradedEvent{
					Scope:  "phase",
					Phase:  phaseID,
					Flips:  m.flipRun,
					Config: m.configValues(0),
				},
			})
		}
	}
	if m.degraded {
		m.applyConfig(m.combos[0], now, false)
		m.appliedKind = appliedNone
		m.appliedPhase = -1
		return
	}

	// Configure for the next interval. Without the predictor the
	// scheme assumes phase persistence (the paper's Section 4.1
	// comparator); with it, the predicted phase's configuration is
	// applied instead — including from a recurring phase's first
	// interval.
	nextID := phaseID
	if m.pred != nil {
		if p := m.pred.Predict(phaseID, m.runLength); p >= 0 && p < len(m.phases) {
			nextID = p
		}
	}
	nph := m.phases[nextID]
	switch {
	case nph.Done:
		m.applyConfig(m.combos[nph.bestPos], now, true)
		m.appliedKind = appliedBest
		m.appliedPhase = nextID
	case nextID == phaseID && stable:
		m.appliedPos = nph.next
		m.warmup = m.applyConfig(m.combos[nph.next], now, false)
		m.appliedKind = appliedTest
		m.appliedPhase = nextID
	case nextID != phaseID && nph.Intervals >= uint64(m.params.StableRun):
		// Predictor-driven tuning of the predicted recurrence.
		m.appliedPos = nph.next
		m.warmup = m.applyConfig(m.combos[nph.next], now, false)
		m.appliedKind = appliedTest
		m.appliedPhase = nextID
	default:
		// Transitional: full-size configuration.
		m.stats.TransitionalIntervs++
		m.applyConfig(m.combos[0], now, false)
		m.appliedKind = appliedNone
		m.appliedPhase = -1
	}
}

func (m *Manager) applyConfig(cfg []int, now uint64, countReconfigs bool) (anyApplied bool) {
	for i, u := range m.units {
		if u.Request(cfg[i], now) {
			anyApplied = true
			if countReconfigs {
				m.stats.Reconfigs++
			}
		}
	}
	return anyApplied
}

// tolerance returns the phase's IPC acceptance tolerance: the 2%
// threshold widened by the phase's observed interval-to-interval IPC
// variability (capped, so a heterogeneous phase cannot accept a
// genuinely bad configuration), the single-sample analogue of the
// hotspot tuner's standard-error widening.
func (m *Manager) tolerance(ph *Phase) float64 {
	const cap = 0.05
	cov := ph.IPCW.CoV()
	if cov > cap {
		cov = cap
	}
	if cov > m.params.PerfThreshold {
		return cov
	}
	return m.params.PerfThreshold
}

func (m *Manager) finishPhase(ph *Phase) {
	ref := ph.meas[0]
	tol := m.tolerance(ph)
	best := -1
	var bestEPI float64
	for i, ms := range ph.meas {
		if !ms.valid {
			continue
		}
		if ref.valid && ms.ipc < (1-tol)*ref.ipc {
			continue
		}
		if best < 0 || ms.epi < bestEPI {
			best = i
			bestEPI = ms.epi
		}
	}
	if best < 0 {
		best = 0
	}
	ph.bestPos = best
	ph.Done = true
	if m.sink != nil {
		m.sink.Emit(telemetry.Event{
			Type:  telemetry.TypePhaseTuned,
			Instr: m.mach.Instructions(),
			Phase: &telemetry.PhaseEvent{
				Phase:  ph.ID,
				Config: m.configValues(best),
				IPC:    ph.meas[best].ipc,
			},
		})
	}
}

// Report is the BBV scheme's end-of-run accounting.
type Report struct {
	Intervals            uint64
	StablePct            float64 // Figure 1 stable share
	Phases               int
	TunedPhases          int
	PctIntervalsInTuned  float64 // Table 5
	PerPhaseIPCCoV       float64
	InterPhaseIPCCoV     float64
	Tunings              uint64
	Reconfigs            uint64
	Coverage             float64 // covered instr / total instr
	TransitionalInterval uint64
	// Degraded reports an oscillation-watchdog trip: the manager
	// pinned the full-size configuration and stopped adapting.
	Degraded bool
	// CorruptSamples counts interval measurements the NaN/Inf guard
	// discarded.
	CorruptSamples uint64
	// Predictor reports the next-phase predictor's outcomes (zero
	// when the predictor is disabled).
	Predictor PredictorStats
}

// Report computes the aggregates. Call after the run completes.
func (m *Manager) Report() Report {
	r := Report{
		Intervals:            m.stats.Intervals,
		Phases:               len(m.phases),
		Tunings:              m.stats.Tunings,
		Reconfigs:            m.stats.Reconfigs,
		TransitionalInterval: m.stats.TransitionalIntervs,
		Degraded:             m.degraded,
		CorruptSamples:       m.stats.CorruptSamples,
	}
	if m.stats.Intervals > 0 {
		r.StablePct = float64(m.stats.StableIntervals) / float64(m.stats.Intervals)
	}
	var intervalsInTuned uint64
	var perCoV stats.Welford
	var means []float64
	for _, ph := range m.phases {
		if ph.Done {
			r.TunedPhases++
			intervalsInTuned += ph.Intervals
		}
		if ph.IPCW.N() >= 2 {
			perCoV.Add(ph.IPCW.CoV())
		}
		if ph.IPCW.N() >= 1 {
			means = append(means, ph.IPCW.Mean())
		}
	}
	if m.stats.Intervals > 0 {
		r.PctIntervalsInTuned = float64(intervalsInTuned) / float64(m.stats.Intervals)
	}
	r.PerPhaseIPCCoV = perCoV.Mean()
	r.InterPhaseIPCCoV = stats.CoV(means)
	if m.pred != nil {
		r.Predictor = m.pred.Stats()
	}
	if total := m.mach.Instructions(); total > 0 {
		r.Coverage = float64(m.stats.CoveredInstr) / float64(total)
	}
	return r
}
