// Package experiment runs the paper's evaluation: each benchmark is
// executed under the static full-size baseline, the BBV comparator,
// and the hotspot framework (plus, as extensions, the working-set-
// signature comparator and the three-CU configuration), and the
// per-run metrics are reduced into the rows of every table and the
// series of every figure (DESIGN.md §5).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"acedo/internal/bbv"
	"acedo/internal/core"
	"acedo/internal/cpu"
	"acedo/internal/fault"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/rtrace"
	"acedo/internal/telemetry"
	"acedo/internal/vm"
	"acedo/internal/workload"
	"acedo/internal/wss"
)

// Scheme selects the resource-adaptation policy of a run.
type Scheme int

const (
	// SchemeBaseline keeps both caches at their largest size.
	SchemeBaseline Scheme = iota
	// SchemeBBV runs the BBV phase detector + exhaustive tuner.
	SchemeBBV
	// SchemeHotspot runs the paper's DO-based framework.
	SchemeHotspot
	// SchemeWSS runs the working-set-signature detector (Dhodapkar
	// & Smith) with the same exhaustive tuner as SchemeBBV — the
	// extension comparator of internal/wss.
	SchemeWSS
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "baseline"
	case SchemeBBV:
		return "bbv"
	case SchemeHotspot:
		return "hotspot"
	case SchemeWSS:
		return "wss"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Options carries the full parameterisation of a run.
type Options struct {
	// ScaleDiv divides every instruction-count parameter (1 = paper
	// scale, 10 = default; DESIGN.md §4).
	ScaleDiv uint64
	// MaxInstr bounds a run (0 = run the program to completion).
	MaxInstr uint64

	Machine machine.Config
	VM      vm.Params
	Core    core.Params
	BBV     bbv.Params
	WSS     wss.Params

	// Sink, when non-nil, receives the run's telemetry: every
	// accepted reconfiguration, hotspot promotion, tuner decision,
	// and interval-metrics sample (internal/telemetry). Events are
	// stamped with the benchmark and scheme, so one concurrency-safe
	// sink (e.g. telemetry.JSONL) can serve a parallel RunSuite. Nil
	// keeps the simulator's hot paths instrumentation-free.
	Sink telemetry.Sink

	// TelemetryInterval is the interval sampler's period in retired
	// instructions. 0 defaults to the machine's L1D reconfiguration
	// interval — the finest adaptation grain, so the series resolves
	// every reconfiguration window. Ignored without a Sink.
	TelemetryInterval uint64

	// Log, when non-nil, receives per-benchmark progress lines from
	// RunSuite (one per completed comparison).
	Log io.Writer

	// Faults, when non-nil, arms the deterministic fault-injection
	// plan (internal/fault): every run compiles the plan against its
	// benchmark/scheme identity and threads the injector through the
	// machine, the profiler, and the phase detector. Nil keeps every
	// injection point on its gate-free fast path.
	Faults *fault.Plan

	// Deadline bounds one run's wall-clock time (0 = unbounded). The
	// engine executes in instruction-budget chunks and checks the
	// clock between chunks, so a wedged or pathologically slow
	// simulation fails with ErrDeadline instead of hanging the suite.
	Deadline time.Duration

	// Parallelism caps the number of concurrently simulated
	// benchmarks in RunSuite (0 = GOMAXPROCS). Every simulation is
	// independent and deterministic, so the results are identical at
	// any setting — a property the determinism tests pin by diffing
	// serial against concurrent suite snapshots. Compare reuses the
	// same cap to fan per-scheme trace replays out in parallel.
	Parallelism int

	// Cancel, when non-nil, aborts the run when the channel is closed
	// (or receives): the engine executes in instruction-budget chunks —
	// the same chunked drive the Deadline machinery uses — and checks
	// the channel between chunks, failing the run with a *RunError
	// wrapping ErrCanceled. Chunking only slices the budget, so an
	// uncanceled run's results are unchanged. The experiment service
	// (internal/server) threads each job's cancellation signal through
	// this field.
	Cancel <-chan struct{}

	// NoReplay disables the record-once / replay-many fast path:
	// Compare, CompareDetectors, and RunSuite execute every scheme
	// directly instead of recording the benchmark's architectural
	// trace once and replaying it per scheme. Replay is bit-exact
	// (the differential tests pin replayed snapshots, DO databases,
	// and telemetry against direct execution), so this switch only
	// trades wall-clock time for paranoia — and supplies the direct
	// runs those differentials, and the replay-check gate, compare
	// against. Single-run Run calls always execute directly.
	NoReplay bool
}

// DefaultOptions returns the standard experiment configuration at the
// default 1/10 scale.
func DefaultOptions() Options {
	return OptionsAtScale(10)
}

// OptionsAtScale builds the experiment configuration for an arbitrary
// scale divisor (1 = paper scale).
func OptionsAtScale(scale uint64) Options {
	if scale == 0 {
		scale = 1
	}
	vp := vm.DefaultParams()
	vp.SampleInterval = 100_000 / scale
	if vp.SampleInterval == 0 {
		vp.SampleInterval = 1
	}
	vp.HotThreshold = 5
	vp.MinSamples = 1
	return Options{
		ScaleDiv: scale,
		Machine:  machine.PaperConfig(scale),
		VM:       vp,
		Core:     core.DefaultParams(scale),
		BBV:      bbv.DefaultParams(scale),
		WSS:      wss.DefaultParams(),
	}
}

// WithThreeCU returns the options with the extension third
// configurable unit enabled: the 16/32/48/64-entry issue queue plus
// the micro hotspot size class that manages it. The BBV comparator's
// combinatorial configuration list grows from 16 to 64 — the paper's
// scalability argument (Section 2.3) made concrete.
func (o Options) WithThreeCU() Options {
	o.Machine = o.Machine.WithIQ()
	o.Core.Bounds = o.Core.Bounds.WithMicro(o.ScaleDiv)
	return o
}

// AOSStats summarizes the DO database after a run (Table 4).
type AOSStats struct {
	Promotions     uint64
	HotspotInstr   uint64
	OverheadInstr  uint64
	MeanSize       float64
	MeanInvocation float64
	// IdentLatencyInstr sums the pre-promotion inclusive
	// instructions across hotspots (Table 4's identification
	// latency numerator).
	IdentLatencyInstr uint64
}

// Result is everything one run produces.
type Result struct {
	Benchmark string
	Scheme    Scheme

	Instr  uint64
	Cycles uint64
	IPC    float64

	L1DEnergyNJ float64
	L2EnergyNJ  float64
	// IQEnergyNJ is zero unless the issue-queue unit is enabled.
	IQEnergyNJ float64

	Breakdown cpu.Breakdown

	AOS AOSStats

	// Hotspot is set for SchemeHotspot runs.
	Hotspot *core.Report
	// BBV is set for SchemeBBV runs.
	BBV *bbv.Report

	// Disposition reports how the run executed: RunDirect (plain
	// execution), RunRecorded (direct execution that also captured
	// the benchmark's architectural trace), RunReplayed (driven from
	// a recorded trace), or RunFallback (replay diverged and the run
	// re-executed directly). Replay is bit-exact, so the disposition
	// never affects a measurement — it is run metadata, reported in
	// RunSuite progress lines and telemetry but deliberately kept out
	// of the schema-stable snapshot.
	Disposition string
	// Wall is the run's host wall-clock duration (for a fallback,
	// including the abandoned replay attempt).
	Wall time.Duration
}

// Run dispositions (Result.Disposition).
const (
	RunDirect   = "direct"
	RunRecorded = "recorded"
	RunReplayed = "replayed"
	RunFallback = "fallback"
)

// ErrDeadline is the cause carried by a *RunError when a run exceeds
// Options.Deadline.
var ErrDeadline = errors.New("experiment: run deadline exceeded")

// ErrCanceled is the cause carried by a *RunError when a run is
// aborted through Options.Cancel.
var ErrCanceled = errors.New("experiment: run canceled")

// RunError is the isolation layer's failure report: the run's
// identity, the underlying error, and — when the run panicked — the
// recovered goroutine stack. It unwraps to the cause, so callers can
// test errors.Is(err, ErrDeadline) or unwrap an injected panic.
type RunError struct {
	Benchmark string
	Scheme    Scheme
	Err       error
	// Stack is the goroutine stack captured at recovery (empty for
	// non-panic failures).
	Stack string
	// Transient marks failures the suite may retry once.
	Transient bool
}

// Error formats the failure with its run identity.
func (e *RunError) Error() string {
	return fmt.Sprintf("experiment %s/%s: %v", e.Benchmark, e.Scheme, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *RunError) Unwrap() error { return e.Err }

// IsTransient reports whether err carries a transient run failure —
// one a retry may clear (e.g. an injected transient panic).
func IsTransient(err error) bool {
	var re *RunError
	return errors.As(err, &re) && re.Transient
}

// Run executes one benchmark under one scheme. The simulation is
// isolated: a panic anywhere inside it — injected by a fault plan or
// a genuine bug — is recovered and returned as a *RunError carrying
// the run identity and stack, so one corrupt run cannot take down a
// caller iterating a suite.
//
// The run executes under pprof labels ("bench", "scheme"), so CPU
// profiles of a suite — including the concurrent RunSuite — attribute
// samples to the benchmark×scheme cell that burned them.
func Run(spec workload.Spec, scheme Scheme, opt Options) (*Result, error) {
	res, _, err := runDirect(spec, scheme, opt, false)
	return res, err
}

// runDirect executes one run on the interpreter under Run's guard.
// With record set, a recorder rides along and the run's architectural
// trace comes back with its result; a trace the recorder could not
// take comes back nil alongside the still-valid result. So does a
// truncated recording whose run charged instrumentation overhead: the
// budget counted instructions the recorder never saw, so the stream
// stops early in program terms and would replay short under every
// scheme that charges none.
func runDirect(spec workload.Spec, scheme Scheme, opt Options, record bool) (*Result, *rtrace.Trace, error) {
	start := time.Now()
	var tr *rtrace.Trace
	res, err := guarded(spec, scheme, func() (*Result, error) {
		st, err := newRunState(spec, scheme, opt)
		if err != nil {
			return nil, err
		}
		eng, err := vm.NewEngine(st.prog, st.mach, st.aos)
		if err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
		var rec *rtrace.SummaryRecorder
		if record {
			rec = rtrace.NewSummaryRecorder(st.prog, opt.MaxInstr)
			if err := eng.SetRecorder(rec); err != nil {
				return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
			}
		}
		if st.listener != nil {
			eng.SetBlockListener(st.listener)
		}
		if err := runEngine(eng, spec.Name, scheme, opt); err != nil {
			return nil, err
		}
		if rec != nil {
			t, ferr := rec.Finish(eng.Halted())
			if ferr == nil && !(t.Truncated() && st.aos.OverheadInstr() > 0) {
				tr = t
			}
		}
		return st.finish(), nil
	})
	if res != nil {
		res.Disposition = RunDirect
		res.Wall = time.Since(start)
		if tr != nil {
			res.Disposition = RunRecorded
			emitDisposition(opt, spec, scheme, res, RunRecorded, "", tr)
		}
	}
	return res, tr, err
}

// guarded executes one run body under Run's isolation guard: the
// pprof run labels and the panic-to-*RunError recovery. Direct,
// recording, and replayed runs all share it, so an injected panic is
// contained identically on every execution path.
func guarded(spec workload.Spec, scheme Scheme, body func() (*Result, error)) (res *Result, err error) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else if ip, ok := r.(fault.InjectedPanic); ok {
			res, err = nil, &RunError{
				Benchmark: spec.Name, Scheme: scheme,
				Err: ip, Stack: string(debug.Stack()), Transient: ip.Transient,
			}
		} else {
			res, err = nil, &RunError{
				Benchmark: spec.Name, Scheme: scheme,
				Err: fmt.Errorf("panic: %v", r), Stack: string(debug.Stack()),
			}
		}
	}()
	pprof.Do(context.Background(), pprof.Labels("bench", spec.Name, "scheme", scheme.String()),
		func(context.Context) {
			res, err = body()
		})
	return res, err
}

// runState is one run's fully wired simulation — program, machine,
// AOS, managers, telemetry, faults, and the composed block listener —
// everything between option parsing and actual execution. Direct
// execution hands it to a vm.Engine; trace replay (internal/rtrace)
// drives the same state straight from a recorded architectural stream.
type runState struct {
	spec   workload.Spec
	scheme Scheme
	opt    Options

	prog    *program.Program
	mach    *machine.Machine
	aos     *vm.AOS
	hotMgr  *core.Manager
	bbvMgr  *bbv.Manager
	sampler *telemetry.Sampler
	// listener is the composed block listener, nil when neither a
	// temporal manager nor an interval sampler wants block events.
	listener vm.BlockListener
}

// newRunState builds and wires one run's simulation state.
func newRunState(spec workload.Spec, scheme Scheme, opt Options) (*runState, error) {
	prog, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
	}
	mach, err := machine.New(opt.Machine)
	if err != nil {
		return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
	}
	aos := vm.NewAOS(opt.VM, mach, prog)

	// Fault wiring: compile the plan for this run's identity and
	// thread the injector through every layer owning an injection
	// point. A nil plan compiles to a nil injector and every layer
	// keeps its fault-free fast path.
	inj, err := fault.New(opt.Faults, spec.Name, scheme.String())
	if err != nil {
		return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
	}
	if inj != nil {
		inj.RunPanic(spec.Name, scheme.String())
		mach.SetFaults(inj)
		aos.SetFaults(inj)
	}

	// Telemetry wiring: label the run's events and unify the
	// machine's reconfiguration callback into the event stream.
	var sink telemetry.Sink
	if opt.Sink != nil {
		sink = telemetry.WithRunLabels(opt.Sink, spec.Name, scheme.String())
		mach.OnReconfigure = telemetry.MachineReconfigure(sink)
	}

	var hotMgr *core.Manager
	var bbvMgr *bbv.Manager
	switch scheme {
	case SchemeHotspot:
		if hotMgr, err = core.NewManager(opt.Core, mach, aos); err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
	case SchemeBBV:
		if bbvMgr, err = bbv.NewManager(opt.BBV, mach); err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
	case SchemeWSS:
		if bbvMgr, err = wss.NewManager(opt.BBV, opt.WSS, mach); err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
	}
	if inj != nil && bbvMgr != nil {
		bbvMgr.SetFaults(inj)
	}
	if sink != nil {
		if hotMgr != nil {
			hotMgr.SetSink(sink)
		}
		if bbvMgr != nil {
			bbvMgr.SetSink(sink)
		}
		// Chain a promotion event after the manager's subscription
		// (the manager registers itself as the AOS consumer).
		inner := aos.OnPromote
		aos.OnPromote = func(p *vm.MethodProfile) {
			sink.Emit(telemetry.Promotion(p.Name, mach.Instructions()))
			if inner != nil {
				inner(p)
			}
		}
	}

	// Block listeners: the temporal manager's accumulator and the
	// interval sampler share the engine's single listener slot.
	var listeners []vm.BlockListener
	if bbvMgr != nil {
		listeners = append(listeners, bbvMgr)
	}
	var sampler *telemetry.Sampler
	if sink != nil {
		every := opt.TelemetryInterval
		if every == 0 {
			every = opt.Machine.L1DReconfigInterval
		}
		if every == 0 {
			every = 100_000
		}
		if sampler, err = telemetry.NewSampler(sink, mach, every); err != nil {
			return nil, fmt.Errorf("experiment %s/%s: %w", spec.Name, scheme, err)
		}
		listeners = append(listeners, sampler)
	}
	st := &runState{
		spec: spec, scheme: scheme, opt: opt,
		prog: prog, mach: mach, aos: aos,
		hotMgr: hotMgr, bbvMgr: bbvMgr, sampler: sampler,
	}
	switch len(listeners) {
	case 1:
		st.listener = listeners[0]
	case 2:
		st.listener = listenerPair{listeners[0], listeners[1]}
	}
	return st, nil
}

// listenerPair chains two block listeners in one slot: each sees every
// entry in order, and an entry only accumulates while it is below both
// listeners' Due.
type listenerPair [2]vm.BlockListener

func (p listenerPair) OnBlock(pc uint64, instrs int) {
	p[0].OnBlock(pc, instrs)
	p[1].OnBlock(pc, instrs)
}

func (p listenerPair) Accumulate(pc uint64, instrs int, n uint64) {
	p[0].Accumulate(pc, instrs, n)
	p[1].Accumulate(pc, instrs, n)
}

func (p listenerPair) Due() uint64 { return min(p[0].Due(), p[1].Due()) }

// finish settles the telemetry sampler, reduces the machine and DO
// database into the run's Result, and releases the machine's cache
// arrays for the next run's machine: nothing reads the run's state
// after its Result exists.
func (st *runState) finish() *Result {
	if st.sampler != nil {
		st.sampler.Final()
	}
	snap := st.mach.Snapshot()
	res := &Result{
		Benchmark:   st.spec.Name,
		Scheme:      st.scheme,
		Instr:       snap.Instr,
		Cycles:      snap.Cycles,
		IPC:         snap.IPC(),
		L1DEnergyNJ: snap.L1DnJ,
		L2EnergyNJ:  snap.L2nJ,
		IQEnergyNJ:  snap.IQnJ,
		Breakdown:   st.mach.Timing.Breakdown(),
		AOS:         reduceAOS(st.aos),
	}
	if st.hotMgr != nil {
		rep := st.hotMgr.Report()
		res.Hotspot = &rep
	}
	if st.bbvMgr != nil {
		rep := st.bbvMgr.Report()
		res.BBV = &rep
	}
	st.mach.Release()
	return res
}

// deadlineChunk is the instruction budget between wall-clock checks
// when a run deadline is set: small enough to notice an expired
// deadline within a fraction of a second, large enough that the
// chunking overhead is noise.
const deadlineChunk = 1_000_000

// runEngine drives the engine to completion. Without a deadline or a
// cancellation channel it is a single Run call — the exact
// pre-existing path. With either, the engine runs in
// instruction-budget chunks and the wall clock (and cancellation
// signal) is checked between chunks; chunking only slices the budget,
// it does not perturb the simulation, so results are identical either
// way.
func runEngine(eng *vm.Engine, bench string, scheme Scheme, opt Options) error {
	if opt.Deadline <= 0 && opt.Cancel == nil {
		if err := eng.Run(opt.MaxInstr); err != nil && err != vm.ErrBudget {
			return fmt.Errorf("experiment %s/%s: %w", bench, scheme, err)
		}
		return nil
	}
	var limit time.Time
	if opt.Deadline > 0 {
		limit = time.Now().Add(opt.Deadline)
	}
	var executed uint64
	for !eng.Halted() {
		select {
		case <-opt.Cancel: // never taken when Cancel is nil
			return &RunError{Benchmark: bench, Scheme: scheme, Err: ErrCanceled}
		default:
		}
		chunk := uint64(deadlineChunk)
		if opt.MaxInstr > 0 {
			if executed >= opt.MaxInstr {
				return nil // budget exhausted, like vm.ErrBudget
			}
			if rest := opt.MaxInstr - executed; rest < chunk {
				chunk = rest
			}
		}
		err := eng.Run(chunk)
		executed += chunk
		if err != nil && err != vm.ErrBudget {
			return fmt.Errorf("experiment %s/%s: %w", bench, scheme, err)
		}
		if err == nil {
			return nil // halted
		}
		if opt.Deadline > 0 && time.Now().After(limit) {
			return &RunError{Benchmark: bench, Scheme: scheme, Err: ErrDeadline}
		}
	}
	return nil
}

func reduceAOS(aos *vm.AOS) AOSStats {
	st := AOSStats{
		Promotions:    aos.Promotions(),
		HotspotInstr:  aos.HotspotInstr(),
		OverheadInstr: aos.OverheadInstr(),
	}
	var sizeSum, invSum float64
	var n int
	for i := range aos.Profiles() {
		p := &aos.Profiles()[i]
		if !p.Promoted {
			continue
		}
		n++
		sizeSum += p.MeanSize()
		invSum += float64(p.Invocations)
		st.IdentLatencyInstr += p.InstrBeforePromotion
	}
	if n > 0 {
		st.MeanSize = sizeSum / float64(n)
		st.MeanInvocation = invSum / float64(n)
	}
	return st
}

// Comparison is one benchmark's three runs plus the derived
// energy-saving and slowdown figures (Figures 3 and 4).
type Comparison struct {
	Name string

	Base, BBVRun, HotRun *Result

	L1DSavingBBV float64
	L1DSavingHot float64
	L2SavingBBV  float64
	L2SavingHot  float64
	// IQ savings are zero unless the issue-queue unit is enabled.
	IQSavingBBV float64
	IQSavingHot float64

	SlowdownBBV float64
	SlowdownHot float64
}

// Compare runs a benchmark under all three schemes and derives the
// figure metrics. Unless Options.NoReplay is set, the benchmark's
// architectural trace is recorded once (during the baseline run, or
// fetched from the process-wide cache) and the other schemes replay it
// — bit-identical to direct execution, at a fraction of the cost.
func Compare(spec workload.Spec, opt Options) (*Comparison, error) {
	rs, err := RunSchemes(spec, opt, []Scheme{SchemeBaseline, SchemeBBV, SchemeHotspot})
	if err != nil {
		return nil, err
	}
	base, bb, hot := rs[0], rs[1], rs[2]
	c := &Comparison{Name: spec.Name, Base: base, BBVRun: bb, HotRun: hot}
	c.L1DSavingBBV = saving(base.L1DEnergyNJ, bb.L1DEnergyNJ)
	c.L1DSavingHot = saving(base.L1DEnergyNJ, hot.L1DEnergyNJ)
	c.L2SavingBBV = saving(base.L2EnergyNJ, bb.L2EnergyNJ)
	c.L2SavingHot = saving(base.L2EnergyNJ, hot.L2EnergyNJ)
	c.IQSavingBBV = saving(base.IQEnergyNJ, bb.IQEnergyNJ)
	c.IQSavingHot = saving(base.IQEnergyNJ, hot.IQEnergyNJ)
	c.SlowdownBBV = slowdown(base, bb)
	c.SlowdownHot = slowdown(base, hot)
	return c, nil
}

// saving returns the fractional energy reduction versus the baseline.
func saving(base, scheme float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - scheme) / base
}

// slowdown returns the fractional cycles-per-instruction increase
// versus the baseline. CPI (rather than raw cycles) is compared
// because the adaptive schemes execute extra instrumentation
// instructions.
func slowdown(base, scheme *Result) float64 {
	if base.Instr == 0 || scheme.Instr == 0 || base.Cycles == 0 {
		return 0
	}
	baseCPI := float64(base.Cycles) / float64(base.Instr)
	// Charge the scheme's cycles against the baseline's useful
	// instruction count: instrumentation instructions are overhead,
	// not work.
	schemeCPI := float64(scheme.Cycles) / float64(base.Instr)
	return schemeCPI/baseCPI - 1
}

// DetectorComparison contrasts the two temporal detectors and the
// hotspot framework on one benchmark — the comparison of Dhodapkar &
// Smith's "Comparing Program Phase Detection Techniques" [10], which
// the paper cites for BBV being "one of the best".
type DetectorComparison struct {
	Name string

	Base, BBVRun, WSSRun, HotRun *Result

	// Savings over the baseline, L1D and L2 combined.
	CacheSavingBBV float64
	CacheSavingWSS float64
	CacheSavingHot float64

	SlowdownBBV float64
	SlowdownWSS float64
	SlowdownHot float64
}

// CompareDetectors runs a benchmark under the baseline, BBV, WSS, and
// hotspot schemes, with the same record-once / replay-many fast path
// as Compare (sharing its trace cache — a Compare followed by a
// CompareDetectors of the same benchmark records nothing twice).
func CompareDetectors(spec workload.Spec, opt Options) (*DetectorComparison, error) {
	rs, err := RunSchemes(spec, opt, []Scheme{SchemeBaseline, SchemeBBV, SchemeWSS, SchemeHotspot})
	if err != nil {
		return nil, err
	}
	base, bb, ws, hot := rs[0], rs[1], rs[2], rs[3]
	cacheNJ := func(r *Result) float64 { return r.L1DEnergyNJ + r.L2EnergyNJ }
	return &DetectorComparison{
		Name:           spec.Name,
		Base:           base,
		BBVRun:         bb,
		WSSRun:         ws,
		HotRun:         hot,
		CacheSavingBBV: saving(cacheNJ(base), cacheNJ(bb)),
		CacheSavingWSS: saving(cacheNJ(base), cacheNJ(ws)),
		CacheSavingHot: saving(cacheNJ(base), cacheNJ(hot)),
		SlowdownBBV:    slowdown(base, bb),
		SlowdownWSS:    slowdown(base, ws),
		SlowdownHot:    slowdown(base, hot),
	}, nil
}

// AdjustWorkload scales a spec's outer loop count to the options'
// scale divisor. The suite's defaults are written for scale 10; at
// paper scale (1) every interval parameter is 10× longer, so programs
// must run 10× longer for the same number of sampling intervals and
// hotspot invocations. RunSuite, RunDetectorSuite and Collect apply
// this automatically; direct Run/Compare callers pass specs verbatim.
func (o Options) AdjustWorkload(s workload.Spec) workload.Spec {
	if o.ScaleDiv == 10 || o.ScaleDiv == 0 {
		return s
	}
	loops := int(uint64(s.MainLoops) * 10 / o.ScaleDiv)
	return s.WithMainLoops(loops)
}

// RunSuite compares every benchmark in the suite, with workload
// lengths adjusted to the options' scale. The benchmarks run in
// parallel (every simulation is independent and deterministic); the
// result order matches workload.Suite(). With Options.Log set, one
// progress line is written per completed benchmark.
//
// Failures are isolated: a benchmark that fails transiently (see
// fault.Rule.Transient) is retried once, and whatever happens the
// remaining benchmarks still run. On error the returned slice holds
// every completed comparison at its suite position (failed ones are
// nil) alongside the joined failures, so callers can render partial
// results instead of discarding a mostly-good suite.
func RunSuite(opt Options) ([]*Comparison, error) {
	return runSuite(opt, Compare, func(c *Comparison) string {
		return runsSummary(c.Base, c.BBVRun, c.HotRun)
	})
}

// RunDetectorSuite is RunSuite for the phase-detector comparison: it
// runs CompareDetectors over every benchmark through the same loop —
// workload adjustment, parallelism cap, transient retry, failure
// isolation and suite-ordered results.
func RunDetectorSuite(opt Options) ([]*DetectorComparison, error) {
	return runSuite(opt, CompareDetectors, func(c *DetectorComparison) string {
		return runsSummary(c.Base, c.BBVRun, c.WSSRun, c.HotRun)
	})
}

// runSuite is the suite loop behind RunSuite and RunDetectorSuite:
// compare runs once per benchmark on at most Options.Parallelism
// goroutines, and summary renders a completed benchmark's progress-line
// suffix.
func runSuite[C any](opt Options, compare func(workload.Spec, Options) (C, error), summary func(C) string) ([]C, error) {
	specs := workload.Suite()
	out := make([]C, len(specs))
	errs := make([]error, len(specs))

	start := time.Now()
	var done atomic.Int64
	var logMu sync.Mutex
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, max(1, par))
	var wg sync.WaitGroup
	for i, spec := range specs {
		sem <- struct{}{} // acquire the slot before spawning
		wg.Add(1)
		go func(i int, spec workload.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = compare(opt.AdjustWorkload(spec), opt)
			if errs[i] != nil && IsTransient(errs[i]) {
				// A transient fault has cleared by the retry:
				// re-run under the plan minus its transient rules
				// (injection is deterministic, so retrying the
				// same plan would fail identically). Persistent
				// rules keep firing and the retry's verdict
				// stands.
				ropt := opt
				ropt.Faults = opt.Faults.WithoutTransient()
				out[i], errs[i] = compare(opt.AdjustWorkload(spec), ropt)
			}
			if opt.Log != nil {
				n := done.Add(1)
				logMu.Lock()
				if errs[i] != nil {
					fmt.Fprintf(opt.Log, "suite: %-10s FAILED (%d/%d, %.1fs elapsed): %v\n",
						spec.Name, n, len(specs), time.Since(start).Seconds(), errs[i])
				} else {
					fmt.Fprintf(opt.Log, "suite: %-10s done (%d/%d, %.1fs elapsed)%s\n",
						spec.Name, n, len(specs), time.Since(start).Seconds(), summary(out[i]))
				}
				logMu.Unlock()
			}
		}(i, spec)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
