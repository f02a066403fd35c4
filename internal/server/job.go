package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/fault"
	"acedo/internal/optimize"
	"acedo/internal/workload"
)

// JobSpec is the wire-format description of one experiment job: which
// benchmarks to run under which schemes, at what scale, with which
// fault plan — the full parameterisation a client POSTs to /v1/jobs.
// The zero value (an empty JSON object) means "the whole default
// evaluation": every suite benchmark under baseline/BBV/hotspot at
// scale 10, exactly what `acetables -json` produces.
//
// Two specs that normalise identically are the same job: the server
// derives the content-addressed result-cache key from the normalised
// spec (see SpecHash), so field order, explicit defaults, and omitted
// fields make no difference to caching.
type JobSpec struct {
	// Benchmarks lists suite benchmark names (workload.Suite order is
	// preserved per name; unknown names fail validation). Empty means
	// every benchmark in the suite.
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Schemes lists the adaptation schemes to run, in order
	// (baseline|bbv|hotspot|wss). Empty means baseline, bbv, hotspot —
	// the paper's three-way comparison, which makes the job's result
	// the schema-stable comparison snapshot (experiment.BenchSnapshot,
	// byte-identical to `acetables -json`). Any other scheme list
	// yields a flat per-run document (RunsSnapshot).
	Schemes []string `json:"schemes,omitempty"`

	// Scale is the instruction-count scale divisor (0 normalises to
	// the default 10; 1 = paper scale).
	Scale uint64 `json:"scale,omitempty"`

	// MaxInstr bounds each run (0 = run the program to completion).
	MaxInstr uint64 `json:"max_instr,omitempty"`

	// ThreeCU enables the issue-queue third configurable unit.
	ThreeCU bool `json:"three_cu,omitempty"`

	// NoReplay disables the record-once/replay-many fast path and
	// executes every scheme directly.
	NoReplay bool `json:"no_replay,omitempty"`

	// RunMeta includes per-run wall time and record/replay disposition
	// in the result document (schema-additive omitempty fields). Note
	// that a cached result carries the metadata of the execution that
	// populated the cache.
	RunMeta bool `json:"run_meta,omitempty"`

	// Events attaches a telemetry sink to every run so the job's
	// /events endpoint streams the full JSONL event log (promotions,
	// reconfigurations, tuner decisions, interval metrics, replay
	// dispositions). Off by default: full-suite event logs run to many
	// megabytes.
	Events bool `json:"events,omitempty"`

	// TelemetryInterval is the interval sampler's period in retired
	// instructions (0 = the machine's L1D reconfiguration interval).
	// Meaningful only with Events set.
	TelemetryInterval uint64 `json:"telemetry_interval,omitempty"`

	// DeadlineMS bounds each run's wall-clock time in milliseconds
	// (0 = unbounded).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Faults arms a deterministic fault-injection plan for every run
	// (internal/fault's JSON plan format).
	Faults *fault.Plan `json:"faults,omitempty"`

	// Optimize, when non-nil, makes this an optimize job: instead of
	// running a scheme list, the server searches the widened
	// configuration space (internal/optimize) for each benchmark's
	// best configuration, evaluating every candidate as a replay of
	// the once-recorded benchmark stream. Optimize jobs take no
	// scheme list and are incompatible with three_cu, no_replay,
	// max_instr, and fault plans; search progress streams on the
	// job's event log regardless of Events. The field is omitempty,
	// so non-optimize specs normalise (and hash, and render) exactly
	// as before.
	Optimize *optimize.Spec `json:"optimize,omitempty"`
}

// defaultSchemes is the normalised scheme list of a spec that omits
// Schemes — the three-way comparison whose result document is the
// schema-stable experiment.BenchSnapshot.
var defaultSchemes = []string{"baseline", "bbv", "hotspot"}

// schemeByName maps wire names to experiment schemes.
var schemeByName = map[string]experiment.Scheme{
	"baseline": experiment.SchemeBaseline,
	"bbv":      experiment.SchemeBBV,
	"hotspot":  experiment.SchemeHotspot,
	"wss":      experiment.SchemeWSS,
}

// Normalize validates the spec and fills defaults (benchmarks → the
// full suite, schemes → baseline/bbv/hotspot, scale → 10), returning
// the canonical form every equivalent submission shares. It rejects
// unknown benchmark or scheme names, duplicates, and negative
// deadlines.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.Scale == 0 {
		s.Scale = 10
	}
	if len(s.Benchmarks) == 0 {
		for _, spec := range workload.Suite() {
			s.Benchmarks = append(s.Benchmarks, spec.Name)
		}
	} else {
		seen := make(map[string]bool, len(s.Benchmarks))
		for _, name := range s.Benchmarks {
			if _, ok := workload.ByName(name); !ok {
				return s, fmt.Errorf("unknown benchmark %q", name)
			}
			if seen[name] {
				return s, fmt.Errorf("duplicate benchmark %q", name)
			}
			seen[name] = true
		}
	}
	if s.Optimize != nil {
		// An optimize job replaces the scheme list with a search; the
		// flags below either contradict the search's replay-everything
		// evaluation model or would silently change its meaning.
		if len(s.Schemes) != 0 {
			return s, fmt.Errorf("optimize jobs take no scheme list")
		}
		if s.ThreeCU {
			return s, fmt.Errorf("optimize jobs cannot set three_cu (the search space explores the issue queue itself)")
		}
		if s.NoReplay {
			return s, fmt.Errorf("optimize jobs require the replay fast path (no_replay unsupported)")
		}
		if s.MaxInstr != 0 {
			return s, fmt.Errorf("optimize jobs cannot truncate runs (max_instr unsupported)")
		}
		if s.Faults != nil {
			return s, fmt.Errorf("optimize jobs do not support fault plans")
		}
		norm, err := s.Optimize.Normalize()
		if err != nil {
			return s, err
		}
		s.Optimize = &norm
	} else if len(s.Schemes) == 0 {
		s.Schemes = append([]string(nil), defaultSchemes...)
	} else {
		seen := make(map[string]bool, len(s.Schemes))
		for _, name := range s.Schemes {
			if _, ok := schemeByName[name]; !ok {
				return s, fmt.Errorf("unknown scheme %q", name)
			}
			if seen[name] {
				return s, fmt.Errorf("duplicate scheme %q", name)
			}
			seen[name] = true
		}
	}
	if s.DeadlineMS < 0 {
		return s, fmt.Errorf("negative deadline_ms %d", s.DeadlineMS)
	}
	return s, nil
}

// comparison reports whether the normalised spec is a three-way
// comparison job, whose result is the schema-stable
// experiment.BenchSnapshot rather than the flat RunsSnapshot.
func (s JobSpec) comparison() bool {
	if len(s.Schemes) != len(defaultSchemes) {
		return false
	}
	for i, name := range s.Schemes {
		if name != defaultSchemes[i] {
			return false
		}
	}
	return true
}

// options builds the experiment options of a normalised spec. The
// cancel channel threads the job's DELETE handler into the engine's
// chunked drive.
func (s JobSpec) options(cancel <-chan struct{}) experiment.Options {
	opt := experiment.OptionsAtScale(s.Scale)
	if s.ThreeCU {
		opt = opt.WithThreeCU()
	}
	opt.MaxInstr = s.MaxInstr
	opt.NoReplay = s.NoReplay
	opt.TelemetryInterval = s.TelemetryInterval
	if s.DeadlineMS > 0 {
		opt.Deadline = time.Duration(s.DeadlineMS) * time.Millisecond
	}
	opt.Faults = s.Faults
	opt.Cancel = cancel
	return opt
}

// SpecHash returns the job's content address: the hex SHA-256 of the
// normalised spec's canonical JSON rendering concatenated with the
// engine version string. Two submissions with the same hash are the
// same experiment on the same engine, so the server serves the second
// from the result cache byte-identically. The spec must already be
// normalised.
func SpecHash(s JobSpec) (string, error) {
	canon, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("server: canonicalise spec: %w", err)
	}
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte{'\n'})
	h.Write([]byte(engineVersion()))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// engineVersion identifies the result-producing engine for the cache
// key: the daemon protocol version plus both result schema versions.
// Bump Version (or a schema version) whenever results change meaning,
// and previously cached entries stop matching.
func engineVersion() string {
	return fmt.Sprintf("acelabd/%s snapshot/%d runs/%d optimize/%d",
		Version, experiment.SnapshotSchemaVersion, RunsSchemaVersion, OptimizeSchemaVersion)
}

// RunsSchemaVersion identifies the RunsSnapshot JSON layout; bump only
// for breaking changes, exactly like experiment.SnapshotSchemaVersion.
const RunsSchemaVersion = 1

// RunsSnapshot is the result document of a job whose scheme list is
// not the default three-way comparison: one flat entry per
// benchmark × scheme run, in spec order, wrapping the same
// schema-stable per-run fields as the comparison snapshot.
type RunsSnapshot struct {
	SchemaVersion int    `json:"schema_version"`
	ScaleDiv      uint64 `json:"scale_div"`
	ThreeCU       bool   `json:"three_cu,omitempty"`

	Runs []RunEntry `json:"runs"`
}

// RunEntry is one benchmark × scheme run of a RunsSnapshot.
type RunEntry struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`

	experiment.RunSnapshot
}

// RunMeta is the per-run metadata a job status reports while (and
// after) the job executes: the run's identity, its record/replay
// disposition, host wall-clock milliseconds, and retired instructions.
type RunMeta struct {
	Benchmark   string  `json:"benchmark"`
	Scheme      string  `json:"scheme"`
	Disposition string  `json:"disposition"`
	WallMS      float64 `json:"wall_ms"`
	Instr       uint64  `json:"instr"`
}

// runJob executes one normalised job spec and returns the serialized
// result document plus per-run metadata. It is the worker pool's run
// function (tests substitute a stub); sink is the job's event log —
// run telemetry attaches to it only when the spec requests events,
// optimize progress always streams — and cancel aborts between
// benchmarks and at the engine's chunk boundaries.
func (s *Server) runJob(spec JobSpec, sink *eventLog, cancel <-chan struct{}) ([]byte, []RunMeta, error) {
	opt := spec.options(cancel)
	if sink != nil && spec.Events {
		opt.Sink = sink
	}
	if spec.Optimize != nil {
		return s.runOptimizeJob(spec, opt, sink, cancel)
	}
	if spec.comparison() {
		return runComparisonJob(spec, opt, cancel)
	}
	return runSchemesJob(spec, opt, cancel)
}

// canceled reports whether the job's cancellation signal has fired.
func canceled(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// runComparisonJob runs the three-way comparison over the spec's
// benchmarks — the same per-benchmark Compare calls, workload
// adjustment, and transient-retry policy as experiment.RunSuite — and
// renders the schema-stable comparison snapshot. A full-suite job is
// byte-identical to `acetables -json` (or -runmeta with RunMeta set).
func runComparisonJob(spec JobSpec, opt experiment.Options, cancel <-chan struct{}) ([]byte, []RunMeta, error) {
	var metas []RunMeta
	results := experiment.SuiteResults{Options: opt}
	for _, name := range spec.Benchmarks {
		if canceled(cancel) {
			return nil, metas, &experiment.RunError{Benchmark: name, Err: experiment.ErrCanceled}
		}
		wspec, _ := workload.ByName(name)
		c, err := experiment.RetryTransient(opt, func(o experiment.Options) (*experiment.Comparison, error) {
			return experiment.Compare(o.AdjustWorkload(wspec), o)
		})
		if err != nil {
			return nil, metas, err
		}
		results.Comparisons = append(results.Comparisons, c)
		metas = append(metas, runMetaOf(c.Base), runMetaOf(c.BBVRun), runMetaOf(c.HotRun))
	}
	snap := results.Snapshot()
	if spec.RunMeta {
		snap = results.SnapshotWithMeta()
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		return nil, metas, err
	}
	return buf.Bytes(), metas, nil
}

// runSchemesJob runs an explicit scheme list per benchmark through
// experiment.RunSchemes (sharing the process-wide record-once/
// replay-many trace cache with every other job) and renders the flat
// RunsSnapshot.
func runSchemesJob(spec JobSpec, opt experiment.Options, cancel <-chan struct{}) ([]byte, []RunMeta, error) {
	schemes := make([]experiment.Scheme, len(spec.Schemes))
	for i, name := range spec.Schemes {
		schemes[i] = schemeByName[name]
	}
	var metas []RunMeta
	snap := RunsSnapshot{
		SchemaVersion: RunsSchemaVersion,
		ScaleDiv:      spec.Scale,
		ThreeCU:       spec.ThreeCU,
		Runs:          []RunEntry{},
	}
	for _, name := range spec.Benchmarks {
		if canceled(cancel) {
			return nil, metas, &experiment.RunError{Benchmark: name, Err: experiment.ErrCanceled}
		}
		wspec, _ := workload.ByName(name)
		results, err := experiment.RetryTransient(opt, func(o experiment.Options) ([]*experiment.Result, error) {
			return experiment.RunSchemes(o.AdjustWorkload(wspec), o, schemes)
		})
		if err != nil {
			return nil, metas, err
		}
		for _, res := range results {
			metas = append(metas, runMetaOf(res))
			snap.Runs = append(snap.Runs, RunEntry{
				Benchmark:   res.Benchmark,
				Scheme:      res.Scheme.String(),
				RunSnapshot: experiment.RunSnapshotOf(res, spec.RunMeta),
			})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return nil, metas, fmt.Errorf("server: runs snapshot encode: %w", err)
	}
	return buf.Bytes(), metas, nil
}

// runMetaOf reduces one run result to its status metadata.
func runMetaOf(r *experiment.Result) RunMeta {
	return RunMeta{
		Benchmark:   r.Benchmark,
		Scheme:      r.Scheme.String(),
		Disposition: r.Disposition,
		WallMS:      float64(r.Wall.Microseconds()) / 1e3,
		Instr:       r.Instr,
	}
}
