package experiment

import (
	"encoding/json"
	"fmt"
	"io"
)

// SnapshotSchemaVersion identifies the BenchSnapshot JSON layout.
// Bump it only for breaking changes (renamed or re-typed fields);
// additive optional fields keep the version. Downstream tooling
// tracking the perf trajectory across commits keys on this.
const SnapshotSchemaVersion = 1

// BenchSnapshot is the machine-readable record of one full suite
// evaluation — the per-commit perf/energy trajectory artifact
// (`acetables -json out.json`, `make bench-snapshot`). The schema is
// deliberately flat and explicit rather than a dump of internal
// structs, so internal refactors do not silently change the file
// format.
type BenchSnapshot struct {
	SchemaVersion int    `json:"schema_version"`
	ScaleDiv      uint64 `json:"scale_div"`
	ThreeCU       bool   `json:"three_cu"`

	Benchmarks []BenchmarkSnapshot `json:"benchmarks"`

	// TraceCache is optional run metadata, filled only by
	// SnapshotWithMeta (e.g. `acetables -json -runmeta`): the
	// process-wide record-once trace cache's state after the
	// evaluation. Plain Snapshot omits it, keeping default snapshots
	// byte-identical between replayed and direct runs and the schema
	// additive.
	TraceCache *TraceCacheSnapshot `json:"trace_cache,omitempty"`
}

// TraceCacheSnapshot gauges the process-wide record-once trace cache
// at snapshot time: resident recordings and their memory charge.
type TraceCacheSnapshot struct {
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// BenchmarkSnapshot is one benchmark's three runs plus the derived
// figure metrics.
type BenchmarkSnapshot struct {
	Name string `json:"name"`

	Baseline RunSnapshot `json:"baseline"`
	BBV      RunSnapshot `json:"bbv"`
	Hotspot  RunSnapshot `json:"hotspot"`

	Derived DerivedSnapshot `json:"derived"`
}

// RunSnapshot is one run's headline measurements.
type RunSnapshot struct {
	Instr  uint64  `json:"instr"`
	Cycles uint64  `json:"cycles"`
	IPC    float64 `json:"ipc"`

	L1DEnergyNJ float64 `json:"l1d_energy_nj"`
	L2EnergyNJ  float64 `json:"l2_energy_nj"`
	IQEnergyNJ  float64 `json:"iq_energy_nj,omitempty"`

	L1Misses  uint64 `json:"l1_misses"`
	L2Misses  uint64 `json:"l2_misses"`
	Reconfigs uint64 `json:"reconfigs"`

	Promotions    uint64 `json:"promotions"`
	OverheadInstr uint64 `json:"overhead_instr"`

	// Optional run metadata, filled only by SnapshotWithMeta (e.g.
	// `acetables -json -runmeta`): the run's record/replay disposition
	// and host wall-clock time. Both are omitted by Snapshot, keeping
	// default snapshots byte-identical across the replay fast path and
	// schema-additive for downstream tooling.
	Disposition string  `json:"disposition,omitempty"`
	WallMS      float64 `json:"wall_ms,omitempty"`
}

// DerivedSnapshot carries the Figure 3/4 metrics: fractional energy
// savings versus the baseline and fractional CPI slowdowns.
type DerivedSnapshot struct {
	L1DSavingBBV float64 `json:"l1d_saving_bbv"`
	L1DSavingHot float64 `json:"l1d_saving_hot"`
	L2SavingBBV  float64 `json:"l2_saving_bbv"`
	L2SavingHot  float64 `json:"l2_saving_hot"`
	IQSavingBBV  float64 `json:"iq_saving_bbv,omitempty"`
	IQSavingHot  float64 `json:"iq_saving_hot,omitempty"`
	SlowdownBBV  float64 `json:"slowdown_bbv"`
	SlowdownHot  float64 `json:"slowdown_hot"`
}

// Snapshot reduces the suite results to the schema-stable snapshot.
func (r *SuiteResults) Snapshot() BenchSnapshot {
	s := BenchSnapshot{
		SchemaVersion: SnapshotSchemaVersion,
		ScaleDiv:      r.Options.ScaleDiv,
		ThreeCU:       len(r.Options.Machine.IQSizes) > 0,
	}
	for _, c := range r.Comparisons {
		s.Benchmarks = append(s.Benchmarks, BenchmarkSnapshot{
			Name:     c.Name,
			Baseline: runSnapshot(c.Base),
			BBV:      runSnapshot(c.BBVRun),
			Hotspot:  runSnapshot(c.HotRun),
			Derived: DerivedSnapshot{
				L1DSavingBBV: c.L1DSavingBBV,
				L1DSavingHot: c.L1DSavingHot,
				L2SavingBBV:  c.L2SavingBBV,
				L2SavingHot:  c.L2SavingHot,
				IQSavingBBV:  c.IQSavingBBV,
				IQSavingHot:  c.IQSavingHot,
				SlowdownBBV:  c.SlowdownBBV,
				SlowdownHot:  c.SlowdownHot,
			},
		})
	}
	return s
}

// SnapshotWithMeta is Snapshot plus the optional per-run metadata
// fields: each run's record/replay disposition and wall-clock
// milliseconds. The additions are omitempty-only, so consumers of the
// schema-stable snapshot are unaffected unless they opt in.
func (r *SuiteResults) SnapshotWithMeta() BenchSnapshot {
	s := r.Snapshot()
	fill := func(rs *RunSnapshot, res *Result) {
		rs.Disposition = res.Disposition
		rs.WallMS = float64(res.Wall.Microseconds()) / 1e3
	}
	for i, c := range r.Comparisons {
		fill(&s.Benchmarks[i].Baseline, c.Base)
		fill(&s.Benchmarks[i].BBV, c.BBVRun)
		fill(&s.Benchmarks[i].Hotspot, c.HotRun)
	}
	tc := CurrentTraceCacheStats()
	s.TraceCache = &TraceCacheSnapshot{Entries: tc.Entries, Bytes: tc.Bytes}
	return s
}

// RunSnapshotOf reduces one run result to its schema-stable snapshot
// form. With withMeta set, the optional run-metadata fields
// (disposition, wall-clock milliseconds) are filled too — the per-run
// analogue of SnapshotWithMeta, used by the experiment service to
// render jobs with explicit scheme lists.
func RunSnapshotOf(r *Result, withMeta bool) RunSnapshot {
	rs := runSnapshot(r)
	if withMeta {
		rs.Disposition = r.Disposition
		rs.WallMS = float64(r.Wall.Microseconds()) / 1e3
	}
	return rs
}

func runSnapshot(r *Result) RunSnapshot {
	return RunSnapshot{
		Instr:         r.Instr,
		Cycles:        r.Cycles,
		IPC:           r.IPC,
		L1DEnergyNJ:   r.L1DEnergyNJ,
		L2EnergyNJ:    r.L2EnergyNJ,
		IQEnergyNJ:    r.IQEnergyNJ,
		L1Misses:      r.Breakdown.L1Misses,
		L2Misses:      r.Breakdown.L2Misses,
		Reconfigs:     r.Breakdown.Reconfigs,
		Promotions:    r.AOS.Promotions,
		OverheadInstr: r.AOS.OverheadInstr,
	}
}

// WriteJSON renders the snapshot as indented JSON (field order fixed
// by the struct declarations, so successive snapshots diff cleanly).
func (s BenchSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("experiment: snapshot encode: %w", err)
	}
	return nil
}
