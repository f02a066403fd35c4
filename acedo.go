// Package acedo is a from-scratch reproduction of "Effective Adaptive
// Computing Environment Management via Dynamic Optimization" (Hu,
// Valluri, John — CGO 2005): a dynamic-optimization-based framework
// that manages multiple configurable hardware units (a size-adaptable
// L1 data cache and L2 cache) by tuning and reconfiguring them at
// program hotspot boundaries.
//
// The package is a facade over the implementation packages:
//
//   - a register-machine ISA, program representation and builder
//     (Builder, Program);
//   - an execution-driven hardware simulator — caches, TLBs, branch
//     predictor, timing and Wattch-style energy model (Machine);
//   - a Jikes-RVM-style adaptive optimization system with sampling
//     hotspot detection and boundary-code insertion (AOS, Engine);
//   - the paper's contribution: the hotspot ACE manager with CU
//     decoupling (Manager);
//   - the Basic-Block-Vector comparator scheme (BBVManager);
//   - seven synthetic SPECjvm98 stand-in workloads (Suite);
//   - the evaluation harness regenerating every table and figure of
//     the paper (RunBenchmark, CompareSchemes, CollectSuite).
//
// Quick start:
//
//	spec, _ := acedo.BenchmarkByName("compress")
//	res, err := acedo.RunBenchmark(spec, acedo.SchemeHotspot, acedo.DefaultOptions())
//	fmt.Println(res.IPC, res.L1DEnergyNJ)
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and experiment index.
package acedo

import (
	"io"

	"acedo/internal/bbv"
	"acedo/internal/core"
	"acedo/internal/experiment"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
	"acedo/internal/wss"
)

// Program construction.
type (
	// Program is a sealed, runnable program for the simulated ISA.
	Program = program.Program
	// Builder assembles Programs method by method.
	Builder = program.Builder
	// MethodID names a method within a Program.
	MethodID = program.MethodID
)

// NewBuilder creates a program builder.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// Hardware platform.
type (
	// Machine is the simulated hardware platform (paper Table 2).
	Machine = machine.Machine
	// MachineConfig parameterises the platform.
	MachineConfig = machine.Config
)

// PaperMachineConfig returns the paper's Table 2 machine, with the
// reconfiguration intervals divided by scaleDiv (1 = paper scale).
func PaperMachineConfig(scaleDiv uint64) MachineConfig { return machine.PaperConfig(scaleDiv) }

// NewMachine constructs a machine at the largest (baseline) sizes.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// Dynamic optimization system.
type (
	// AOS is the adaptive optimization system (hotspot detection,
	// DO database, boundary-code insertion).
	AOS = vm.AOS
	// Engine interprets a Program on a Machine.
	Engine = vm.Engine
	// VMParams configures the AOS.
	VMParams = vm.Params
)

// DefaultVMParams returns the scaled default AOS parameters.
func DefaultVMParams() VMParams { return vm.DefaultParams() }

// NewAOS constructs the adaptive optimization system.
func NewAOS(p VMParams, m *Machine, prog *Program) *AOS { return vm.NewAOS(p, m, prog) }

// NewEngine constructs an execution engine.
func NewEngine(prog *Program, m *Machine, a *AOS) (*Engine, error) {
	return vm.NewEngine(prog, m, a)
}

// The framework (the paper's contribution).
type (
	// Manager is the hotspot-based ACE management framework.
	Manager = core.Manager
	// ManagerParams configures the framework.
	ManagerParams = core.Params
	// Analyzer is the static footprint estimator implementing the
	// paper's future-work JIT configuration hints.
	Analyzer = core.Analyzer
	// Database is the persistable slice of the DO database: tuned
	// configurations that can warm-start a later run
	// (Result.Hotspot.Database, ManagerParams.WarmStart).
	Database = core.Database
	// TuningMode selects decoupled (the paper) or monolithic (the
	// ablation) tuning.
	TuningMode = core.Mode
)

// The tuning modes.
const (
	ModeDecoupled  = core.ModeDecoupled
	ModeMonolithic = core.ModeMonolithic
)

// ParseDatabase decodes a DO database exported by
// a hotspot run's Result.Hotspot.Database().Marshal().
func ParseDatabase(data []byte) (*Database, error) { return core.ParseDatabase(data) }

// DefaultManagerParams returns the framework parameters at the given
// scale divisor (1 = paper scale, 10 = default experiments).
func DefaultManagerParams(scaleDiv uint64) ManagerParams { return core.DefaultParams(scaleDiv) }

// NewManager constructs and registers the framework on an AOS.
func NewManager(p ManagerParams, m *Machine, a *AOS) (*Manager, error) {
	return core.NewManager(p, m, a)
}

// NewAnalyzer statically analyzes a program for configuration hints.
func NewAnalyzer(prog *Program) *Analyzer { return core.NewAnalyzer(prog) }

// The comparator scheme.
type (
	// BBVManager is the Basic Block Vector phase-tracking scheme
	// with the all-combinations tuner (the paper's baseline
	// comparison technique).
	BBVManager = bbv.Manager
	// BBVParams configures the BBV scheme.
	BBVParams = bbv.Params
)

// DefaultBBVParams returns the paper's BBV configuration at the given
// scale divisor.
func DefaultBBVParams(scaleDiv uint64) BBVParams { return bbv.DefaultParams(scaleDiv) }

// NewBBVManager constructs the BBV manager. Install it as the engine's
// block listener.
func NewBBVManager(p BBVParams, m *Machine) (*BBVManager, error) { return bbv.NewManager(p, m) }

// PhaseDetector is the pluggable phase-detection half of a temporal
// scheme; implementations include the BBV detector and the
// working-set-signature detector.
type PhaseDetector = bbv.Detector

// WSSParams configures the working-set-signature detector (Dhodapkar
// & Smith), the extension comparator of internal/wss.
type WSSParams = wss.Params

// DefaultWSSParams returns Dhodapkar & Smith's configuration (1024-bit
// signatures, δ = 0.5).
func DefaultWSSParams() WSSParams { return wss.DefaultParams() }

// NewWSSManager constructs the temporal-scheme manager driven by the
// working-set-signature detector.
func NewWSSManager(scheme BBVParams, det WSSParams, m *Machine) (*BBVManager, error) {
	return wss.NewManager(scheme, det, m)
}

// Workloads.
type (
	// BenchmarkSpec describes one synthetic SPECjvm98 stand-in.
	BenchmarkSpec = workload.Spec
)

// Suite returns the seven benchmark specs in the paper's order.
func Suite() []BenchmarkSpec { return workload.Suite() }

// BenchmarkByName returns the spec with the given name.
func BenchmarkByName(name string) (BenchmarkSpec, bool) { return workload.ByName(name) }

// Evaluation harness.
type (
	// Scheme selects the resource-adaptation policy of a run.
	Scheme = experiment.Scheme
	// Options carries a run's full parameterisation.
	Options = experiment.Options
	// Result is one run's measurements.
	Result = experiment.Result
	// Comparison is one benchmark across all three schemes.
	Comparison = experiment.Comparison
	// SuiteResults renders the paper's tables and figures.
	SuiteResults = experiment.SuiteResults
)

// The schemes: the paper's three plus the working-set-signature
// comparator extension.
const (
	SchemeBaseline = experiment.SchemeBaseline
	SchemeBBV      = experiment.SchemeBBV
	SchemeHotspot  = experiment.SchemeHotspot
	SchemeWSS      = experiment.SchemeWSS
)

// DefaultOptions returns the standard experiment configuration at the
// default 1/10 scale (DESIGN.md §4).
func DefaultOptions() Options { return experiment.DefaultOptions() }

// OptionsAtScale builds the configuration for an arbitrary scale
// divisor (1 = paper scale).
func OptionsAtScale(scale uint64) Options { return experiment.OptionsAtScale(scale) }

// RunBenchmark executes one benchmark under one scheme.
func RunBenchmark(spec BenchmarkSpec, s Scheme, opt Options) (*Result, error) {
	return experiment.Run(spec, s, opt)
}

// CompareSchemes runs a benchmark under all three schemes and derives
// the energy-saving and slowdown figures.
func CompareSchemes(spec BenchmarkSpec, opt Options) (*Comparison, error) {
	return experiment.Compare(spec, opt)
}

// CollectSuite runs the full evaluation (7 benchmarks × 3 schemes).
func CollectSuite(opt Options) (*SuiteResults, error) { return experiment.Collect(opt) }

// WriteAllTables renders every table and figure of the evaluation.
func WriteAllTables(r *SuiteResults, w io.Writer) { r.WriteAll(w) }
