package core

import (
	"math"

	"acedo/internal/ace"
	"acedo/internal/hotspot"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/stats"
	"acedo/internal/telemetry"
	"acedo/internal/vm"
)

// state is a hotspot's position in the tuning lifecycle.
type state int

const (
	stateTuning state = iota
	stateConfigured
)

func (s state) String() string {
	if s == stateTuning {
		return "tuning"
	}
	return "configured"
}

// measure accumulates a tested configuration's observations. Multiple
// clean samples are averaged before the descent advances, because a
// single invocation's IPC is too noisy for the 2% threshold; the
// sample variance additionally widens the acceptance gate (relTol), so
// that co-scheduled hotspots under pollution noise converge to the
// same choice instead of coin-flipping around the threshold.
type measure struct {
	count    int
	ipcSum   float64
	ipcSqSum float64
	// epiSum accumulates the cache energy per instruction (nJ) —
	// the quantity "most energy-efficient" minimizes.
	epiSum float64
}

func (ms *measure) add(ipc, epi float64) {
	if !stats.Finite(ipc) || !stats.Finite(epi) {
		// A corrupted (NaN/Inf) sample must never enter the
		// acceptance math: it would poison every later mean and
		// make gateFails undecidable. Drop it; the descent simply
		// needs one more clean invocation.
		return
	}
	ms.count++
	ms.ipcSum += ipc
	ms.ipcSqSum += ipc * ipc
	ms.epiSum += epi
}

func (ms measure) valid() bool { return ms.count > 0 }

func (ms measure) ipc() float64 {
	if ms.count == 0 {
		return 0
	}
	return ms.ipcSum / float64(ms.count)
}

func (ms measure) epi() float64 {
	if ms.count == 0 {
		return 0
	}
	return ms.epiSum / float64(ms.count)
}

// relStderr returns the standard error of the mean IPC relative to the
// mean (0 with <2 samples).
func (ms measure) relStderr() float64 {
	if ms.count < 2 || ms.ipcSum == 0 {
		return 0
	}
	n := float64(ms.count)
	mean := ms.ipcSum / n
	variance := ms.ipcSqSum/n - mean*mean
	if variance <= 0 {
		return 0
	}
	return math.Sqrt(variance/n) / mean
}

// invEntry is the per-invocation record pushed at hotspot entry and
// popped at exit (hotspots re-enter through nesting, so a stack).
type invEntry struct {
	snap    machine.Snapshot
	state   state
	wanted  int    // configs position under test, -1 if none/rejected
	applied uint64 // sum of units' applied-counters right after our request
}

// Hotspot is the framework's per-hotspot record: the DO database
// extension holding the configuration list, the list index, the
// measurements, and the chosen configuration (paper Section 3.2.2).
type Hotspot struct {
	Prof  *vm.MethodProfile
	Class hotspot.Class

	units   []*ace.Unit
	configs [][]int // setting-index vectors, largest first
	meas    []measure
	next    int
	attempt int

	st      state
	bestPos int
	// passive marks a hotspot whose tuning never obtained a clean
	// measurement — typically because nested hotspots manage the
	// same unit (paper Section 3.2.1: small hotspots tuning a
	// low-overhead CU automatically tune it for the enclosing
	// hotspot). A passive hotspot inherits the interior's choices
	// and issues no configuration requests of its own.
	passive bool
	// TunedIPC is the IPC observed under the selected
	// configuration, the reference for re-tune sampling.
	TunedIPC float64
	// TunedOK marks hotspots that completed a tuning pass (tested
	// every configuration or aborted on the performance threshold).
	TunedOK bool
	// TunePasses counts completed tuning passes (>1 after re-tunes).
	TunePasses int
	// Retunes counts re-entries into tuning triggered by sampling.
	Retunes int
	// Degraded marks a hotspot tripped by the oscillation watchdog
	// (Params.MaxRetunes): it is pinned to the full-size safe
	// configuration and no longer re-tunes.
	Degraded bool

	entryStack  []invEntry
	sinceSample uint64
	driftCount  int

	// IPCW accumulates per-invocation IPC observations (Table 5's
	// per-hotspot CoV).
	IPCW stats.Welford
}

// State returns "tuning" or "configured".
func (h *Hotspot) State() string { return h.st.String() }

// BestConfig returns the selected setting-index vector (valid once
// configured).
func (h *Hotspot) BestConfig() []int { return h.configs[h.bestPos] }

// Units returns the configurable units this hotspot manages.
func (h *Hotspot) Units() []*ace.Unit { return h.units }

// classCounters aggregates per-size-class accounting for Table 6.
type classCounters struct {
	hotspots  int
	tuned     int
	tunings   uint64 // configuration tests completed
	reconfigs uint64 // best-config applications that changed hardware

	depth     int
	spanStart uint64
	covered   uint64 // instructions executed inside configured hotspots
}

func (c *classCounters) enterCovered(now uint64) {
	if c.depth == 0 {
		c.spanStart = now
	}
	c.depth++
}

func (c *classCounters) exitCovered(now uint64) {
	c.depth--
	if c.depth == 0 {
		c.covered += now - c.spanStart
	}
}

// Manager is the ACE management framework bound to one machine and one
// AOS. Construct it before running the engine; it registers itself as
// the AOS promotion consumer.
type Manager struct {
	params Params
	mach   *machine.Machine
	aos    *vm.AOS

	hotspots   []*Hotspot
	byMethod   map[program.MethodID]*Hotspot
	unmanaged  int
	warmStarts int
	degraded   int

	// sink, when non-nil, observes tuner decisions (completed
	// configuration measurements, selections, re-tunes).
	sink telemetry.Sink

	micro classCounters
	l1d   classCounters
	l2    classCounters
}

// NewManager constructs and registers the framework.
func NewManager(params Params, mach *machine.Machine, aos *vm.AOS) (*Manager, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		params:   params,
		mach:     mach,
		aos:      aos,
		byMethod: make(map[program.MethodID]*Hotspot),
	}
	aos.OnPromote = m.onPromote
	return m, nil
}

// Params returns the framework parameters.
func (m *Manager) Params() Params { return m.params }

// SetSink installs a telemetry sink observing the tuner's decisions.
// Pass nil to remove it. Install before running the engine.
func (m *Manager) SetSink(s telemetry.Sink) { m.sink = s }

// configValues translates a setting-index vector into setting values
// in the hotspot's unit order (what an event consumer can interpret
// without the unit tables).
func (h *Hotspot) configValues(pos int) []int {
	cfg := h.configs[pos]
	vals := make([]int, len(cfg))
	for i, u := range h.units {
		vals[i] = u.Setting(cfg[i])
	}
	return vals
}

// emitTuner sends one tuner event for the hotspot.
func (m *Manager) emitTuner(t telemetry.Type, h *Hotspot, ev telemetry.TunerEvent) {
	if m.sink == nil {
		return
	}
	ev.Method = h.Prof.Name
	ev.Class = h.Class.String()
	m.sink.Emit(telemetry.Event{Type: t, Instr: m.mach.Instructions(), Tuner: &ev})
}

// Hotspots returns the managed hotspots in promotion order.
func (m *Manager) Hotspots() []*Hotspot { return m.hotspots }

// Unmanaged returns the number of promoted methods too small for any
// CU subset.
func (m *Manager) Unmanaged() int { return m.unmanaged }

func (m *Manager) class(c hotspot.Class) *classCounters {
	switch c {
	case hotspot.ClassMicro:
		return &m.micro
	case hotspot.ClassL1D:
		return &m.l1d
	}
	return &m.l2
}

// onPromote is the JIT-compilation moment: classify the hotspot,
// choose its CU subset, create its configuration list, and insert the
// tuning and profiling code (paper Figure 2).
func (m *Manager) onPromote(prof *vm.MethodProfile) {
	class := m.params.Bounds.Classify(prof.MeanSize())
	if class == hotspot.ClassNone {
		m.unmanaged++
		return
	}

	if class == hotspot.ClassMicro && m.mach.IQUnit == nil {
		// Micro class enabled without the issue-queue unit: the
		// hotspot has no unit to manage.
		m.unmanaged++
		return
	}

	h := &Hotspot{Prof: prof, Class: class, st: stateTuning}
	switch m.params.Mode {
	case ModeDecoupled:
		switch class {
		case hotspot.ClassMicro:
			h.units = []*ace.Unit{m.mach.IQUnit}
		case hotspot.ClassL1D:
			h.units = []*ace.Unit{m.mach.L1DUnit}
		default:
			h.units = []*ace.Unit{m.mach.L2Unit}
		}
		h.configs = ace.Descending(h.units[0])
	case ModeMonolithic:
		h.units = append([]*ace.Unit{}, m.mach.Units()...)
		h.configs = ace.Combinations(h.units)
	}
	h.meas = make([]measure, len(h.configs))

	m.hotspots = append(m.hotspots, h)
	m.byMethod[prof.ID] = h
	m.class(class).hotspots++

	if db := m.params.WarmStart; db.validFor(m.params.Mode) {
		if saved, ok := db.lookup(prof.Name, class); ok {
			if pos := h.findConfig(saved.Config); pos >= 0 {
				h.bestPos = pos
				h.TunedIPC = saved.TunedIPC
				h.st = stateConfigured
				h.TunedOK = true
				h.TunePasses++
				m.class(class).tuned++
				m.warmStarts++
				m.installConfiguredHooks(h)
				return
			}
		}
	}

	if m.params.StaticHint != nil {
		if cfg, ok := m.params.StaticHint(prof.ID, class, prof.MeanSize()); ok {
			if pos := h.findConfig(cfg); pos >= 0 {
				// The JIT's code analysis replaces the
				// descent entirely (paper Section 6).
				h.bestPos = pos
				h.st = stateConfigured
				h.TunedOK = true
				h.TunePasses++
				m.class(class).tuned++
				m.installConfiguredHooks(h)
				return
			}
		}
	}

	m.installTuningHooks(h)
}

func (h *Hotspot) findConfig(cfg []int) int {
	for i, c := range h.configs {
		if len(c) != len(cfg) {
			continue
		}
		same := true
		for j := range c {
			if c[j] != cfg[j] {
				same = false
				break
			}
		}
		if same {
			return i
		}
	}
	return -1
}

func (m *Manager) installTuningHooks(h *Hotspot) {
	m.aos.SetHooks(h.Prof.ID, &vm.Hooks{
		Entry:         func(*vm.MethodProfile) { m.onEnter(h) },
		Exit:          func(_ *vm.MethodProfile, _ uint64) { m.onExit(h) },
		EntryOverhead: m.params.TuneEntryOverhead,
		ExitOverhead:  m.params.ProfileExitOverhead,
	})
}

func (m *Manager) installConfiguredHooks(h *Hotspot) {
	m.aos.SetHooks(h.Prof.ID, &vm.Hooks{
		Entry:         func(*vm.MethodProfile) { m.onEnter(h) },
		Exit:          func(_ *vm.MethodProfile, _ uint64) { m.onExit(h) },
		EntryOverhead: m.params.ConfigOverhead,
		ExitOverhead:  m.params.SampleCheckOverhead,
	})
}

// appliedSum is the total accepted-reconfiguration count across the
// hotspot's units, used to detect configuration changes that dirty a
// tuning measurement (e.g. a nested hotspot adapting the same unit).
func (h *Hotspot) appliedSum() uint64 {
	var s uint64
	for _, u := range h.units {
		s += u.Stats().Applied
	}
	return s
}

// requestConfig writes the hotspot's units' control registers to the
// given setting vector and reports whether every unit now matches.
func (h *Hotspot) requestConfig(cfg []int, now uint64) (allMatch bool, anyApplied bool) {
	allMatch = true
	for i, u := range h.units {
		if u.Request(cfg[i], now) {
			anyApplied = true
		}
		if u.CurrentIndex() != cfg[i] {
			allMatch = false
		}
	}
	return allMatch, anyApplied
}

// onEnter runs the inserted entry code: tuning code while tuning,
// configuration code once configured.
func (m *Manager) onEnter(h *Hotspot) {
	now := m.mach.Instructions()
	e := invEntry{state: h.st, wanted: -1}
	switch h.st {
	case stateTuning:
		cfg := h.configs[h.next]
		// Measure only invocations that start with the wanted
		// configuration already active: the invocation during
		// which the resize happens runs with a flushed (cold)
		// cache, which at this simulation scale would bias the
		// tuner toward large configurations (DESIGN.md §4).
		if ok, applied := h.requestConfig(cfg, now); ok && !applied {
			e.wanted = h.next
			e.applied = h.appliedSum()
		}
	case stateConfigured:
		if !h.passive {
			if _, applied := h.requestConfig(h.configs[h.bestPos], now); applied {
				m.class(h.Class).reconfigs++
			}
		}
		m.class(h.Class).enterCovered(now)
	}
	e.snap = m.mach.Snapshot()
	h.entryStack = append(h.entryStack, e)
}

// onExit runs the inserted exit code: profiling code while tuning,
// sampling code once configured.
func (m *Manager) onExit(h *Hotspot) {
	if len(h.entryStack) == 0 {
		// An exit without a matching instrumented entry can only
		// happen if hooks were installed mid-invocation, which
		// promotion ordering prevents; be defensive anyway.
		return
	}
	e := h.entryStack[len(h.entryStack)-1]
	h.entryStack = h.entryStack[:len(h.entryStack)-1]

	d := machine.Delta(e.snap, m.mach.Snapshot())
	ipc := d.IPC()
	if d.Instr > 0 && stats.Finite(ipc) {
		h.IPCW.Add(ipc)
	}

	switch e.state {
	case stateTuning:
		m.tuneStep(h, e, d, ipc)
	case stateConfigured:
		m.class(h.Class).exitCovered(m.mach.Instructions())
		h.sinceSample++
		if h.sinceSample >= m.params.SamplePeriod {
			h.sinceSample = 0
			m.aos.ChargeOverhead(m.params.SampleOverhead)
			if h.TunedIPC > 0 && stats.Finite(ipc) && relDiff(ipc, h.TunedIPC) > m.params.RetuneThreshold {
				// Require two consecutive drifting samples
				// before re-tuning so one noisy invocation
				// cannot restart the descent.
				h.driftCount++
				if h.driftCount >= 2 {
					m.retune(h)
				}
			} else {
				h.driftCount = 0
			}
		}
	}
}

// energyPerInstr extracts the configurable units' energy per
// instruction from a snapshot delta. Every configurable unit is
// charged regardless of the hotspot's own subset: an undersized L1D
// shows up as extra L2 access energy, and a slow configuration
// accumulates extra leakage everywhere, so the "most energy-efficient"
// objective prices the costs a per-unit meter would hide.
func (m *Manager) energyPerInstr(h *Hotspot, d machine.Snapshot) float64 {
	if d.Instr == 0 {
		return 0
	}
	return (d.L1DnJ + d.L2nJ + d.IQnJ) / float64(d.Instr)
}

// tuneStep processes one tuning invocation's measurement: record it if
// clean, advance the list index, and finish when every configuration
// has been tested or the performance threshold trips.
func (m *Manager) tuneStep(h *Hotspot, e invEntry, d machine.Snapshot, ipc float64) {
	// If the hotspot transitioned (a nested re-entry finished the
	// descent) while this invocation was in flight, drop the stale
	// measurement.
	if h.st != stateTuning {
		return
	}
	h.attempt++
	clean := e.wanted == h.next && e.applied == h.appliedSum() && d.Instr > 0
	if clean {
		ms := &h.meas[h.next]
		ms.add(ipc, m.energyPerInstr(h, d))
		if ms.count < m.params.MeasureSamples {
			return
		}
		m.class(h.Class).tunings++
		m.emitTuner(telemetry.TypeTuneStep, h, telemetry.TunerEvent{
			Config: h.configValues(h.next), IPC: ms.ipc(), EPI: ms.epi(),
		})
		ref := h.meas[0]
		failed := ref.valid() && h.next > 0 && m.gateFails(ref, *ms)
		// The descent is grouped by the innermost (lowest-overhead)
		// unit's settings, mirroring the temporal tuner: a failure
		// inside a group skips its remaining (smaller) settings; a
		// failure at a group head means the outer setting itself is
		// too small — the threshold is reached. With a single unit
		// the group spans the whole list, so this is the paper's
		// plain "until the performance threshold is reached".
		groupSize := h.units[len(h.units)-1].NumSettings()
		switch {
		case !failed:
			h.next++
		case h.next%groupSize == 0:
			h.next = len(h.configs)
		default:
			h.next = (h.next/groupSize + 1) * groupSize
		}
		if h.next >= len(h.configs) {
			m.finishTuning(h, true)
		}
		return
	}
	if m.params.MaxTuneAttempts > 0 && h.attempt >= m.params.MaxTuneAttempts {
		// Give up the descent; configure with what was measured.
		m.finishTuning(h, false)
	}
}

// finishTuning selects the most energy-efficient configuration among
// the valid measurements whose IPC stays within PerfThreshold of the
// largest configuration's, then swaps the inserted code (paper
// Section 3.3).
func (m *Manager) finishTuning(h *Hotspot, completed bool) {
	ref := h.meas[0]
	best := -1
	var bestEPI float64
	for i, ms := range h.meas {
		if !ms.valid() {
			continue
		}
		if ref.valid() && m.gateFails(ref, ms) {
			continue
		}
		if best < 0 || ms.epi() < bestEPI {
			best = i
			bestEPI = ms.epi()
		}
	}
	if best < 0 {
		// Nothing measured cleanly: nested hotspots already manage
		// this unit, so inherit their choices instead of fighting
		// them with our own requests.
		best = 0
		h.passive = true
	}
	h.bestPos = best
	h.TunedIPC = h.meas[best].ipc()
	h.st = stateConfigured
	h.TunePasses++
	if completed && !h.TunedOK {
		h.TunedOK = true
		m.class(h.Class).tuned++
	}
	m.emitTuner(telemetry.TypeTuned, h, telemetry.TunerEvent{
		Config: h.configValues(best), IPC: h.TunedIPC, EPI: h.meas[best].epi(),
		Passive: h.passive, Completed: completed,
	})
	m.installConfiguredHooks(h)
}

// gateFails reports whether a configuration's measured IPC falls
// outside the performance threshold relative to the largest
// configuration. The threshold is widened by the measurements'
// standard errors so that noise (e.g. pollution from co-resident
// probe structures) does not flip decisions around the 2% line.
func (m *Manager) gateFails(ref, ms measure) bool {
	widen := 2 * (ref.relStderr() + ms.relStderr())
	if widen > 0.04 {
		widen = 0.04
	}
	tol := m.params.PerfThreshold + widen
	return ms.ipc() < (1-tol)*ref.ipc()
}

// retune re-enters the tuning state after the sampling code detects a
// behaviour change (paper Section 3.3; rare by design). The
// oscillation watchdog bounds it: a hotspot that keeps drifting —
// a workload flipping behaviour every sample window — would otherwise
// thrash the hardware with endless descents, so once its re-tunes
// reach Params.MaxRetunes it degrades to the full-size safe
// configuration instead.
func (m *Manager) retune(h *Hotspot) {
	h.Retunes++
	if m.params.MaxRetunes > 0 && h.Retunes >= m.params.MaxRetunes {
		m.degrade(h)
		return
	}
	m.emitTuner(telemetry.TypeRetune, h, telemetry.TunerEvent{})
	h.st = stateTuning
	h.next = 0
	h.attempt = 0
	h.driftCount = 0
	h.passive = false
	for i := range h.meas {
		h.meas[i] = measure{}
	}
	m.installTuningHooks(h)
}

// degrade pins an oscillating hotspot to the full-size safe
// configuration (configs[0], every unit at its largest setting),
// disables its drift sampling, and emits one TypeDegraded event. The
// run continues — graceful degradation trades the hotspot's energy
// savings for stability.
func (m *Manager) degrade(h *Hotspot) {
	if h.Degraded {
		return
	}
	h.Degraded = true
	h.st = stateConfigured
	h.bestPos = 0
	h.passive = false
	h.driftCount = 0
	// TunedIPC 0 disables the configured-state drift comparison, so
	// a degraded hotspot can never re-enter tuning.
	h.TunedIPC = 0
	m.degraded++
	if m.sink != nil {
		m.sink.Emit(telemetry.Event{
			Type:  telemetry.TypeDegraded,
			Instr: m.mach.Instructions(),
			Degraded: &telemetry.DegradedEvent{
				Scope:   "hotspot",
				Method:  h.Prof.Name,
				Class:   h.Class.String(),
				Retunes: h.Retunes,
				Config:  h.configValues(0),
			},
		})
	}
	// Pin immediately; later entries re-request through the
	// configured hooks if the interval guard holds this one back.
	h.requestConfig(h.configs[0], m.mach.Instructions())
	m.installConfiguredHooks(h)
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// ClassReport is one size class's aggregate results (Table 6 rows).
type ClassReport struct {
	Hotspots  int
	Tuned     int
	Tunings   uint64
	Reconfigs uint64
	// Coverage is the fraction of all dynamic instructions executed
	// inside configured hotspots of this class.
	Coverage float64
}

// HotspotOutcome is one managed hotspot's row in the end-of-run
// report: the method, its size class, where its tuning ended, and the
// configuration it chose.
type HotspotOutcome struct {
	Method string
	Class  hotspot.Class
	// State is "tuning" or "configured".
	State string
	// Units names the managed units in configuration-vector order;
	// Config is the chosen setting-index vector over them and
	// Settings the chosen setting values.
	Units    []string
	Config   []int
	Settings []int
	// TunedIPC is the IPC observed under the chosen configuration (0
	// for a hinted or degraded hotspot); MeanSize the method's mean
	// invocation size in instructions.
	TunedIPC float64
	MeanSize float64
	// Tuned marks a hotspot that completed a tuning pass or was
	// configured from a hint or a warm start; Passive one that
	// inherited its nested hotspots' choices instead of measuring.
	Tuned   bool
	Passive bool
}

// Report is the framework's end-of-run accounting for Tables 5 and 6.
type Report struct {
	TotalInstr uint64

	// Mode is the run's tuning strategy.
	Mode Mode

	// Hotspots holds one outcome row per managed hotspot, in
	// promotion order.
	Hotspots []HotspotOutcome

	// Micro is zero-valued unless the issue-queue unit and the
	// micro size class are enabled.
	Micro ClassReport
	L1D   ClassReport
	L2    ClassReport

	// Unmanaged counts promoted methods below the L1D size class.
	Unmanaged int

	// TunedPct is tuned/classified hotspots (Table 5 "% of tuned
	// hotspots").
	TunedPct float64

	// PerHotspotIPCCoV is the mean over classified hotspots of each
	// hotspot's per-invocation IPC CoV; InterHotspotIPCCoV is the
	// CoV of the hotspots' mean IPCs (Table 5).
	PerHotspotIPCCoV   float64
	InterHotspotIPCCoV float64

	// Retunes counts sampling-triggered re-tunings across hotspots.
	Retunes int

	// Degraded counts hotspots tripped by the oscillation watchdog
	// and pinned to the full-size safe configuration.
	Degraded int

	// WarmStarts counts hotspots configured directly from a
	// previous run's database (Params.WarmStart).
	WarmStarts int
}

// Report computes the aggregate accounting. Call it after the engine
// has halted (the engine's halt unwinding closes all coverage spans).
func (m *Manager) Report() Report {
	r := Report{
		TotalInstr: m.mach.Instructions(),
		Mode:       m.params.Mode,
		Hotspots:   make([]HotspotOutcome, 0, len(m.hotspots)),
		Unmanaged:  m.unmanaged,
		Degraded:   m.degraded,
		WarmStarts: m.warmStarts,
	}
	r.Micro = m.classReport(&m.micro)
	r.L1D = m.classReport(&m.l1d)
	r.L2 = m.classReport(&m.l2)

	classified := r.Micro.Hotspots + r.L1D.Hotspots + r.L2.Hotspots
	if classified > 0 {
		r.TunedPct = float64(r.Micro.Tuned+r.L1D.Tuned+r.L2.Tuned) / float64(classified)
	}

	var perCoV stats.Welford
	var means []float64
	for _, h := range m.hotspots {
		r.Hotspots = append(r.Hotspots, h.outcome())
		r.Retunes += h.Retunes
		if h.IPCW.N() >= 2 {
			perCoV.Add(h.IPCW.CoV())
		}
		if h.IPCW.N() >= 1 {
			means = append(means, h.IPCW.Mean())
		}
	}
	r.PerHotspotIPCCoV = perCoV.Mean()
	r.InterHotspotIPCCoV = stats.CoV(means)
	return r
}

// outcome renders the hotspot's report row.
func (h *Hotspot) outcome() HotspotOutcome {
	o := HotspotOutcome{
		Method:   h.Prof.Name,
		Class:    h.Class,
		State:    h.State(),
		Units:    make([]string, len(h.units)),
		Config:   append([]int(nil), h.BestConfig()...),
		Settings: h.configValues(h.bestPos),
		TunedIPC: h.TunedIPC,
		MeanSize: h.Prof.MeanSize(),
		Tuned:    h.TunedOK,
		Passive:  h.passive,
	}
	for i, u := range h.units {
		o.Units[i] = u.Name()
	}
	return o
}

func (m *Manager) classReport(c *classCounters) ClassReport {
	rep := ClassReport{
		Hotspots:  c.hotspots,
		Tuned:     c.tuned,
		Tunings:   c.tunings,
		Reconfigs: c.reconfigs,
	}
	covered := c.covered
	if c.depth > 0 {
		// A budget-limited run can stop mid-invocation, leaving
		// the outermost span open; count it up to now. (Runs to
		// completion never hit this: the engine's halt unwinding
		// fires every exit.)
		covered += m.mach.Instructions() - c.spanStart
	}
	if total := m.mach.Instructions(); total > 0 {
		rep.Coverage = float64(covered) / float64(total)
	}
	return rep
}
