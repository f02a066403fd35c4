// Package machine assembles the simulated hardware platform of the
// paper's Table 2: a 4-wide core with a 2K-entry combined branch
// predictor, a fixed 64 KB L1 I-cache, a size-adaptable L1 D-cache
// (64/32/16/8 KB, 100 K-instruction reconfiguration interval), a
// size-adaptable unified L2 (1 M/512 K/256 K/128 K, 1 M-instruction
// interval), 128-entry fully-associative I/D TLBs, and Wattch-style
// energy meters on the configurable units. An optional third unit —
// the 16/32/48/64-entry issue queue (Config.WithIQ) — models the
// paper's in-progress extension CUs.
//
// The execution engine drives the machine with architectural events
// (IssueBatch, FetchLines, Data, CondBranch); the ACE managers drive it through
// the ace.Unit control registers (L1DUnit, L2Unit, IQUnit).
package machine

import (
	"fmt"

	"acedo/internal/ace"
	"acedo/internal/cache"
	"acedo/internal/cpu"
	"acedo/internal/fault"
	"acedo/internal/isa"
	"acedo/internal/power"
)

const kb = 1024

// Config parameterises the machine. ScaledConfig and PaperConfig build
// the standard instances.
type Config struct {
	L1DSizes []int // ascending; largest is the baseline size
	L2Sizes  []int

	// L1DWays and L2Ways set the configurable caches' associativity
	// (0 = the paper's 2-way L1D / 4-way L2). Associativity is fixed
	// hardware — resizing changes the set count only — but the widened
	// search space of internal/optimize explores alternative fixed
	// choices, so it is a construction parameter here.
	L1DWays int
	L2Ways  int

	L1ISize int

	// IQSizes, when non-nil, enables the third configurable unit —
	// the issue queue / instruction window (entry counts,
	// ascending; the largest is the baseline 64-entry window of
	// Table 2). Nil reproduces the paper's two-CU evaluation.
	IQSizes []int

	L1DReconfigInterval uint64 // instructions
	L2ReconfigInterval  uint64
	IQReconfigInterval  uint64

	TLBEntries int
	PageBytes  int

	Timing cpu.TimingConfig
}

// PaperConfig returns the paper's Table 2 configuration, with the
// reconfiguration intervals divided by scaleDiv (1 reproduces the
// paper exactly; the default experiments use 10 — see DESIGN.md §4).
func PaperConfig(scaleDiv uint64) Config {
	if scaleDiv == 0 {
		scaleDiv = 1
	}
	return Config{
		L1DSizes:            []int{8 * kb, 16 * kb, 32 * kb, 64 * kb},
		L2Sizes:             []int{128 * kb, 256 * kb, 512 * kb, 1024 * kb},
		L1ISize:             64 * kb,
		L1DReconfigInterval: 100_000 / scaleDiv,
		L2ReconfigInterval:  1_000_000 / scaleDiv,
		IQReconfigInterval:  10_000 / scaleDiv,
		TLBEntries:          128,
		PageBytes:           4096,
		Timing:              cpu.DefaultTimingConfig(),
	}
}

// WithIQ returns the configuration with the issue-queue unit enabled
// at the standard 16/32/48/64-entry settings.
func (c Config) WithIQ() Config {
	c.IQSizes = []int{16, 32, 48, 64}
	return c
}

// Machine is the simulated hardware. All fields are owned by the
// single simulation goroutine; the machine is not safe for concurrent
// use.
type Machine struct {
	cfg Config

	L1I *cache.Cache
	L1D *cache.Cache
	L2  *cache.Cache

	ITLB *cache.TLB
	DTLB *cache.TLB

	Pred   *cpu.Predictor
	Timing *cpu.Timing

	ML1D *power.Meter
	ML2  *power.Meter
	MIQ  *power.Meter // nil unless the IQ unit is enabled

	// L1DUnit and L2Unit are the control registers for the two
	// configurable caches (paper Section 3.4); IQUnit is the
	// optional third unit (nil unless Config.IQSizes is set).
	L1DUnit *ace.Unit
	L2Unit  *ace.Unit
	IQUnit  *ace.Unit

	iqBase int // largest window size

	instructions uint64
	booted       bool

	// faults, when non-nil, injects resize stalls (the request-level
	// faults live in the units' gates; see SetFaults).
	faults *fault.Injector

	// OnReconfigure, when set, observes every accepted
	// configuration change (for tracing/visualization; it must not
	// call back into the machine). It fires only after the resize
	// and the meter switch have succeeded, so telemetry never
	// records a reconfiguration that did not happen.
	OnReconfigure func(unit string, setting int, instr uint64)
}

// validLadder checks every size in a resizable cache's setting list
// against its fixed geometry, so an invalid small setting fails at
// construction instead of panicking at the first resize.
func validLadder(name string, sizes []int, blockBytes, ways int) error {
	prev := 0
	for _, size := range sizes {
		if size <= prev {
			return fmt.Errorf("machine: %s sizes must be ascending", name)
		}
		prev = size
		lineBytes := blockBytes * ways
		if size%lineBytes != 0 {
			return fmt.Errorf("machine: %s size %d not a multiple of ways×block (%d)", name, size, lineBytes)
		}
		if sets := size / lineBytes; sets&(sets-1) != 0 {
			return fmt.Errorf("machine: %s size %d yields non-power-of-two set count %d", name, size, sets)
		}
	}
	return nil
}

// ways returns the configured associativities with the paper defaults
// (2-way L1D, 4-way L2) filled in for zero fields.
func (c Config) ways() (l1d, l2 int) {
	l1d, l2 = c.L1DWays, c.L2Ways
	if l1d == 0 {
		l1d = 2
	}
	if l2 == 0 {
		l2 = 4
	}
	return l1d, l2
}

// ValidateConfig checks a configuration's resizable-cache geometry —
// non-empty ascending size ladders whose every setting is a line
// multiple with a power-of-two set count under the configured
// associativity — without building the machine. New performs the same
// checks; callers enumerating candidate configurations (e.g.
// internal/optimize's space validation) use this to fail early.
func ValidateConfig(cfg Config) error {
	if len(cfg.L1DSizes) == 0 || len(cfg.L2Sizes) == 0 {
		return fmt.Errorf("machine: missing cache size lists")
	}
	l1dWays, l2Ways := cfg.ways()
	if err := validLadder("L1D", cfg.L1DSizes, isa.DBlockBytes, l1dWays); err != nil {
		return err
	}
	return validLadder("L2", cfg.L2Sizes, 128, l2Ways)
}

// New constructs a machine at the baseline (largest) configuration.
func New(cfg Config) (*Machine, error) {
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}

	maxL1D := cfg.L1DSizes[len(cfg.L1DSizes)-1]
	maxL2 := cfg.L2Sizes[len(cfg.L2Sizes)-1]
	l1dWays, l2Ways := cfg.ways()

	var err error
	if m.L1I, err = cache.New("L1I", cfg.L1ISize, 64, 2); err != nil {
		return nil, err
	}
	if m.L1D, err = cache.New("L1D", maxL1D, isa.DBlockBytes, l1dWays); err != nil {
		return nil, err
	}
	if m.L2, err = cache.New("L2", maxL2, 128, l2Ways); err != nil {
		return nil, err
	}
	m.ITLB = cache.NewTLB("ITLB", cfg.TLBEntries, cfg.PageBytes)
	m.DTLB = cache.NewTLB("DTLB", cfg.TLBEntries, cfg.PageBytes)
	m.Pred = cpu.NewPredictor()
	m.Timing = cpu.NewTiming(cfg.Timing)

	if m.ML1D, err = power.NewMeter(power.L1Model("L1D"), maxL1D); err != nil {
		return nil, err
	}
	if m.ML2, err = power.NewMeter(power.L2Model(), maxL2); err != nil {
		return nil, err
	}

	m.L1DUnit, err = ace.NewUnit("L1D", cfg.L1DSizes, len(cfg.L1DSizes)-1,
		cfg.L1DReconfigInterval, m.applyL1D)
	if err != nil {
		return nil, err
	}
	m.L2Unit, err = ace.NewUnit("L2", cfg.L2Sizes, len(cfg.L2Sizes)-1,
		cfg.L2ReconfigInterval, m.applyL2)
	if err != nil {
		return nil, err
	}
	if len(cfg.IQSizes) > 0 {
		m.iqBase = cfg.IQSizes[len(cfg.IQSizes)-1]
		if m.MIQ, err = power.NewMeter(power.IQModel(), m.iqBase); err != nil {
			return nil, err
		}
		m.IQUnit, err = ace.NewUnit("IQ", cfg.IQSizes, len(cfg.IQSizes)-1,
			cfg.IQReconfigInterval, m.applyIQ)
		if err != nil {
			return nil, err
		}
	}
	m.booted = true
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Units returns the machine's configurable units, L1D first, then L2,
// then (when enabled) the issue queue.
func (m *Machine) Units() []*ace.Unit {
	us := []*ace.Unit{m.L1DUnit, m.L2Unit}
	if m.IQUnit != nil {
		us = append(us, m.IQUnit)
	}
	return us
}

// SetFaults installs (or, with nil, removes) a fault injector: the
// units' request gates route through the injector's unit-request
// point, and accepted resizes consult its resize point for extra
// drain stalls. Install before running; without an injector the hot
// paths stay gate-free.
func (m *Machine) SetFaults(inj *fault.Injector) {
	m.faults = inj
	var gate ace.Gate
	if inj != nil {
		gate = func(unit string, _ int, _ uint64) ace.GateOutcome {
			switch inj.UnitRequest(unit) {
			case fault.OutcomeReject:
				return ace.GateReject
			case fault.OutcomeDefer:
				return ace.GateDefer
			}
			return ace.GateAllow
		}
	}
	for _, u := range m.Units() {
		u.SetGate(gate)
	}
}

// faultStall charges any injected extra drain cycles for a resize of
// the named unit.
func (m *Machine) faultStall(unit string) {
	if m.faults == nil {
		return
	}
	if extra := m.faults.ResizeStall(unit); extra > 0 {
		m.Timing.ReconfigureStall(extra)
	}
}

// applyIQ resizes the instruction window: drain the in-flight window
// (a fixed-cycle cost, no data movement), adjust the timing model's
// exposure, and switch the energy meter.
func (m *Machine) applyIQ(entries int, nowInstr uint64) {
	if !m.booted {
		return
	}
	cycles := m.Timing.Cycles()
	m.Timing.SetWindow(entries, m.iqBase)
	if err := m.MIQ.SetSize(entries, cycles); err != nil {
		panic(fmt.Sprintf("machine: IQ meter: %v", err))
	}
	m.Timing.Reconfigure(0)
	m.faultStall("IQ")
	if m.OnReconfigure != nil {
		m.OnReconfigure("IQ", entries, nowInstr)
	}
}

// applyL1D performs the L1D resize: flush dirty lines to L2 (charged
// as L2 accesses plus flush energy) and charge the timing model.
func (m *Machine) applyL1D(size int, nowInstr uint64) {
	if !m.booted {
		return // initial apply at construction; cache already at size
	}
	cycles := m.Timing.Cycles()
	wb, err := m.L1D.Resize(size)
	if err != nil {
		panic(fmt.Sprintf("machine: L1D resize: %v", err))
	}
	if err := m.ML1D.SetSize(size, cycles); err != nil {
		panic(fmt.Sprintf("machine: L1D meter: %v", err))
	}
	m.ML1D.FlushWritebacks(wb)
	m.ML2.AccessN(uint64(wb)) // flushed lines land in L2
	m.Timing.Reconfigure(wb)
	m.faultStall("L1D")
	if m.OnReconfigure != nil {
		m.OnReconfigure("L1D", size, nowInstr)
	}
}

// applyL2 performs the L2 resize: dirty lines go to memory.
func (m *Machine) applyL2(size int, nowInstr uint64) {
	if !m.booted {
		return
	}
	cycles := m.Timing.Cycles()
	wb, err := m.L2.Resize(size)
	if err != nil {
		panic(fmt.Sprintf("machine: L2 resize: %v", err))
	}
	if err := m.ML2.SetSize(size, cycles); err != nil {
		panic(fmt.Sprintf("machine: L2 meter: %v", err))
	}
	m.ML2.FlushWritebacks(wb)
	m.Timing.Reconfigure(wb)
	m.faultStall("L2")
	if m.OnReconfigure != nil {
		m.OnReconfigure("L2", size, nowInstr)
	}
}

// Instructions returns the number of retired instructions.
func (m *Machine) Instructions() uint64 { return m.instructions }

// Cycles returns the current cycle count.
func (m *Machine) Cycles() uint64 { return m.Timing.Cycles() }

// Issue retires n instructions (issue bandwidth + instruction count;
// with the IQ unit enabled, each instruction pays the window's
// per-entry wakeup/select energy).
func (m *Machine) Issue(n uint64) {
	m.instructions += n
	m.Timing.Issue(n)
	if m.MIQ != nil {
		m.MIQ.AccessN(n)
	}
}

// IssueBatch retires a straight-line run of n engine instructions in
// one call — the batched-issue entry point of the block-batched fast
// path. It is architecturally identical to n Issue(1) calls: the
// instruction count and issue-slot accounting are integer-linear, and
// the IQ wakeup/select energy is accrued with AccessRepeat so the
// float accumulation is bit-exact with the per-instruction path (the
// differential determinism tests assert exact Snapshot equality across
// engine modes, three-CU included).
func (m *Machine) IssueBatch(n uint64) {
	m.instructions += n
	m.Timing.Issue(n)
	if m.MIQ != nil {
		m.MIQ.AccessRepeat(n)
	}
}

// iLineBytes is the L1I block size (matches the cache.New call in New;
// a 64 B line holds 16 4-byte instructions).
const iLineBytes = isa.ILineBytes

// FetchLines walks the I-cache line range [first, last] (byte
// addresses of 64 B lines) and accesses each line once. The sealed
// program stores each block's precomputed range (program.Block
// FirstLine/LastLine), so a block entry does no address arithmetic.
//
// It reports each line's I-TLB and L1I outcomes as bitmasks (bit i set
// = the walk's i-th line missed). Both structures have fixed
// configurations, so the masks are scheme-invariant and a trace
// replayer can re-apply them without re-simulating either structure.
// ok is false when the range spans more than 64 lines: a shift of 64 or
// more is 0, so the masks stop recording past line 63, while the
// accesses still happen in full.
func (m *Machine) FetchLines(first, last uint64) (tlbMask, missMask uint64, ok bool) {
	i := uint(0)
	for addr := first; ; addr += iLineBytes {
		if !m.ITLB.Access(addr) {
			m.Timing.TLBMiss()
			tlbMask |= 1 << i
		}
		r := m.L1I.Access(addr, false)
		if r.Writeback {
			m.l2Access(r.WritebackAddr, true)
		}
		if !r.Hit {
			m.Timing.L1Miss()
			missMask |= 1 << i
			m.l2Access(addr, false)
		}
		if addr == last {
			break
		}
		i++
	}
	return tlbMask, missMask, i < 64
}

// ReplayFetchLines applies a recorded fetch walk: the fixed
// I-TLB/L1I outcomes charge the timing model directly from the masks,
// and each recorded L1I miss still drives the live (resizable, shared)
// L2 at the same address and in the same order as direct execution.
// L1I lines are never dirty, so a fetch walk generates no writebacks.
func (m *Machine) ReplayFetchLines(first, last, tlbMask, missMask uint64) {
	i := 0
	for addr := first; ; addr += iLineBytes {
		if tlbMask&(1<<i) != 0 {
			m.Timing.TLBMiss()
		}
		if missMask&(1<<i) != 0 {
			m.Timing.L1Miss()
			m.l2Access(addr, false)
		}
		if addr == last {
			break
		}
		i++
	}
}

// wordShift converts the engine's word addresses (8-byte words) to
// byte addresses.
const wordShift = isa.WordShift

// Data simulates a data access to the given word address and reports
// the D-TLB outcome — the one scheme-invariant piece of a data access
// (the L1D and L2 are resizable and must be simulated live on replay,
// which is ReplayData, the rest of this access).
func (m *Machine) Data(wordAddr uint64, write bool) (tlbMiss bool) {
	addr := wordAddr << wordShift
	if !m.DTLB.Access(addr) {
		m.Timing.TLBMiss()
		tlbMiss = true
	}
	m.ReplayData(wordAddr, write)
	return tlbMiss
}

// ReplayData applies one recorded data access whose D-TLB outcome is
// charged separately (ChargeDataTLBMisses): the resizable L1D and L2 —
// whose behavior depends on the scheme under replay — simulate live,
// writebacks included. It takes any word address; runs of accesses
// whose blocks fit a 16-bit operand go through ReplayDataWords instead.
func (m *Machine) ReplayData(wordAddr uint64, write bool) {
	addr := wordAddr << wordShift
	m.ML1D.Access()
	m.l1dResult(addr, m.L1D.Access(addr, write))
}

// ReplayDataWords applies a run of recorded data accesses whose D-TLB
// outcomes are charged separately, stored as entries: entry i is ks[i]
// consecutive accesses to one isa.DBlockBytes block, whose operand
// ds[i] is the block's index shifted left once, with the write flag in
// bit 0. It is exactly ks[i] ReplayData calls per entry, in order, each
// with the entry's write flag: the L1D indexes at that block size and
// the L2 at a coarser one, so an access anywhere in the block finds
// the same set and tag. The cache walks the entries in one loop, one
// probe each (cache.Cache.AccessWords), and hands back each miss,
// whose L2 traffic and stall apply here before the walk resumes; the
// entry's trailing hits touch only the L1D, so applying them before
// the miss's L2 traffic changes nothing. The L1D meter then takes the
// run's accesses in one AccessRepeat, bit-exact with one Access per
// access, and no other L1D-meter charge falls among them (a miss
// charges only the L2 meter and the timing model).
func (m *Machine) ReplayDataWords(ds []uint16, ks []uint8) {
	before := m.L1D.Stats().Accesses
	for len(ds) > 0 {
		n, r := m.L1D.AccessWords(ds, ks)
		if !r.Hit {
			m.l1dResult(uint64(ds[n-1]>>1)<<isa.DBlockShift, r)
		}
		ds, ks = ds[n:], ks[n:]
	}
	m.ML1D.AccessRepeat(m.L1D.Stats().Accesses - before)
}

// l1dResult propagates an L1D access's outcome at byte address addr
// to the L2: a dirty victim's writeback first, then the miss's stall
// and refill read.
func (m *Machine) l1dResult(addr uint64, r cache.Result) {
	if r.Writeback {
		m.l2Access(r.WritebackAddr, true)
	}
	if !r.Hit {
		m.Timing.L1Miss()
		m.l2Access(addr, false)
	}
}

func (m *Machine) l2Access(addr uint64, write bool) {
	m.ML2.Access()
	r := m.L2.Access(addr, write)
	if !r.Hit {
		m.Timing.L2Miss()
	}
}

// CondBranch records the outcome of the conditional branch at global
// instruction index pc and charges a misprediction if the combined
// predictor got it wrong. It returns the predictor's verdict — the
// predictor is fixed hardware, so the verdict is scheme-invariant and
// recordable.
func (m *Machine) CondBranch(pc uint64, outcome bool) bool {
	if !m.Pred.Predict(pc, outcome) {
		m.Timing.Mispredict()
		return false
	}
	return true
}

// ReplayFetchCharges applies the charges of a recorded fetch walk
// whose miss mask is empty in bulk: its I-TLB miss stalls. With no
// L1I miss there is no L2 traffic, so the walk is pure arithmetic, and
// the bulk charge is bit-exact with the per-line sequence (cpu.Timing's
// N-variants add integer counters).
func (m *Machine) ReplayFetchCharges(tlbMisses uint64) { m.Timing.TLBMissN(tlbMisses) }

// ChargeDataTLBMisses charges n recorded D-TLB misses in bulk — the
// summarized replay's exact per-access path separates the (order-
// independent) TLB stall charges from the live cache simulation.
func (m *Machine) ChargeDataTLBMisses(n uint64) { m.Timing.TLBMissN(n) }

// ChargeMispredicts charges n recorded branch mispredictions in bulk:
// the predictor's verdicts were captured at record time, so replay
// charges them without consulting (or updating) the predictor.
func (m *Machine) ChargeMispredicts(n uint64) { m.Timing.MispredictN(n) }

// Release hands the machine's cache arrays to machines built later
// (cache.Cache.Release). Call it once the run's results have been
// read; the machine must not be used afterwards.
func (m *Machine) Release() {
	m.L1I.Release()
	m.L1D.Release()
	m.L2.Release()
}

// Snapshot is a point-in-time reading of the measures the tuning code
// samples at hotspot boundaries: retired instructions, cycles, and the
// energy of the two configurable caches.
type Snapshot struct {
	Instr  uint64
	Cycles uint64
	L1DnJ  float64
	L2nJ   float64
	// IQnJ is zero when the issue-queue unit is disabled.
	IQnJ float64
}

// Snapshot finalizes leakage up to the current cycle and returns the
// counters.
func (m *Machine) Snapshot() Snapshot {
	cyc := m.Timing.Cycles()
	m.ML1D.Finalize(cyc)
	m.ML2.Finalize(cyc)
	snap := Snapshot{
		Instr:  m.instructions,
		Cycles: cyc,
		L1DnJ:  m.ML1D.Totals().TotalNJ(),
		L2nJ:   m.ML2.Totals().TotalNJ(),
	}
	if m.MIQ != nil {
		m.MIQ.Finalize(cyc)
		snap.IQnJ = m.MIQ.Totals().TotalNJ()
	}
	return snap
}

// Observe returns what Snapshot would, except that each meter's
// leakage reads up to the current cycle without closing its epoch
// (power.Meter.TotalsAt): the reading changes no state, so an
// observer such as a telemetry sampler cannot move a later Snapshot's
// energy by a rounding step. Its energies may differ from a Snapshot
// taken at the same point in the last digit.
func (m *Machine) Observe() Snapshot {
	cyc := m.Timing.Cycles()
	snap := Snapshot{
		Instr:  m.instructions,
		Cycles: cyc,
		L1DnJ:  m.ML1D.TotalsAt(cyc).TotalNJ(),
		L2nJ:   m.ML2.TotalsAt(cyc).TotalNJ(),
	}
	if m.MIQ != nil {
		snap.IQnJ = m.MIQ.TotalsAt(cyc).TotalNJ()
	}
	return snap
}

// Delta returns the change from an earlier snapshot to a later one.
func Delta(start, end Snapshot) Snapshot {
	return Snapshot{
		Instr:  end.Instr - start.Instr,
		Cycles: end.Cycles - start.Cycles,
		L1DnJ:  end.L1DnJ - start.L1DnJ,
		L2nJ:   end.L2nJ - start.L2nJ,
		IQnJ:   end.IQnJ - start.IQnJ,
	}
}

// IPC returns instructions per cycle for a snapshot delta.
func (s Snapshot) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instr) / float64(s.Cycles)
}
