// Package core implements the paper's primary contribution: the
// DO-based adaptive computing environment management framework
// (Section 3). It subscribes to hotspot promotions from the dynamic
// optimization system, applies CU decoupling to match each hotspot
// with a subset of configurable units, drives the per-hotspot tuning
// state machine through inserted boundary code, and reconfigures the
// hardware to each hotspot's most energy-efficient configuration at
// every subsequent invocation — with zero recurring-phase
// identification latency.
package core

import (
	"fmt"

	"acedo/internal/hotspot"
	"acedo/internal/program"
)

// Mode selects the tuning strategy.
type Mode int

const (
	// ModeDecoupled is the paper's CU decoupling: each hotspot
	// tunes only the unit matching its size class, walking that
	// unit's 4 settings.
	ModeDecoupled Mode = iota
	// ModeMonolithic is the ablation: every classified hotspot
	// tunes all units over the full combinatorial configuration
	// list (16 combinations), like the temporal approaches'
	// straightforward strategy grafted onto hotspot boundaries.
	ModeMonolithic
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeDecoupled:
		return "decoupled"
	case ModeMonolithic:
		return "monolithic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Params configures the framework.
type Params struct {
	// Bounds classifies hotspots into CU subsets by mean size.
	Bounds hotspot.Bounds

	// Mode selects decoupled (paper) or monolithic (ablation)
	// tuning.
	Mode Mode

	// PerfThreshold aborts the tuning descent when a configuration
	// degrades IPC by more than this fraction relative to the
	// largest configuration (paper: 2%), and disqualifies such
	// configurations from selection.
	PerfThreshold float64

	// RetuneThreshold re-enters tuning when a sampled invocation's
	// IPC drifts from the tuned IPC by more than this fraction.
	RetuneThreshold float64

	// SamplePeriod is the configured-state sampling cadence: every
	// SamplePeriod-th invocation runs the performance-sampling
	// stub.
	SamplePeriod uint64

	// MeasureSamples is the number of clean same-configuration
	// invocations averaged per tested configuration; a single
	// invocation's IPC is too noisy for the 2% threshold.
	MeasureSamples int

	// MaxTuneAttempts caps tuning-state invocations per pass; a
	// hotspot whose guard-rejected or dirtied measurements exceed
	// the cap selects among what it measured (and does not count as
	// "tuned"). 0 disables the cap.
	MaxTuneAttempts int

	// MaxRetunes is the oscillation watchdog: a hotspot whose
	// sampling-triggered re-tunes reach this count is degraded —
	// pinned to the full-size safe configuration with drift
	// sampling disabled — instead of descending again, so an
	// oscillating workload cannot thrash the hardware indefinitely.
	// 0 disables the watchdog.
	MaxRetunes int

	// WarmStart, if non-nil, is a previous run's exported DO
	// database: a promoted hotspot found in it is configured
	// immediately with the saved configuration, skipping the
	// descent (Report.Database / ParseDatabase). It is
	// consulted before StaticHint and ignored if its tuning Mode
	// differs from this run's.
	WarmStart *Database

	// StaticHint, if non-nil, is consulted at promotion (the
	// paper's Section 6 future-work feature: the JIT estimates the
	// required configuration by code analysis). When it returns
	// ok, the hotspot skips the tuning descent entirely and is
	// configured to the hinted setting index vector. See
	// NewAnalyzer for the provided implementation.
	StaticHint func(method program.MethodID, class hotspot.Class, meanSize float64) (cfg []int, ok bool)

	// Inserted-stub lengths in instructions.
	TuneEntryOverhead   uint64 // tuning code at hotspot entry
	ProfileExitOverhead uint64 // profiling code at hotspot exits
	ConfigOverhead      uint64 // configuration code after tuning
	SampleCheckOverhead uint64 // cheap per-exit cadence check
	SampleOverhead      uint64 // full sampling stub, every SamplePeriod-th exit
}

// DefaultParams returns the framework parameters at the given scale
// divisor (DESIGN.md §4; 1 = paper scale, 10 = default experiments).
func DefaultParams(scaleDiv uint64) Params {
	return Params{
		Bounds:              hotspot.PaperBounds(scaleDiv),
		Mode:                ModeDecoupled,
		PerfThreshold:       0.02,
		RetuneThreshold:     0.30,
		SamplePeriod:        48,
		MeasureSamples:      3,
		MaxTuneAttempts:     48,
		MaxRetunes:          4,
		TuneEntryOverhead:   24,
		ProfileExitOverhead: 12,
		ConfigOverhead:      8,
		SampleCheckOverhead: 2,
		SampleOverhead:      6,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if err := p.Bounds.Validate(); err != nil {
		return err
	}
	if p.PerfThreshold < 0 || p.PerfThreshold >= 1 {
		return fmt.Errorf("core: perf threshold %v out of [0,1)", p.PerfThreshold)
	}
	if p.RetuneThreshold <= 0 {
		return fmt.Errorf("core: retune threshold %v must be positive", p.RetuneThreshold)
	}
	if p.SamplePeriod == 0 {
		return fmt.Errorf("core: sample period must be positive")
	}
	if p.MeasureSamples <= 0 {
		return fmt.Errorf("core: measure samples must be positive")
	}
	if p.MaxRetunes < 0 {
		return fmt.Errorf("core: max retunes %d must be non-negative", p.MaxRetunes)
	}
	return nil
}
