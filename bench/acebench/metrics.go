package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one measured value with its unit, in the shape of the
// result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// print order, with their units. BENCHMARK.json declares the same set
// with directions and bounds (a test keeps the two in step).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"warm_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// print order, with their units.
var perLayer = []struct{ name, unit string }{
	{"workload.build_ms", "ms"},
	{"vm.engine_minstr_s", "Minstr/s"},
	{"vm.instr", "count"},
	{"rtrace.record_ms", "ms"},
	{"rtrace.record_overhead_pct", "%"},
	{"rtrace.trace_mb", "MB"},
	{"rtrace.replay_minstr_s", "Minstr/s"},
	{"rtrace.fallbacks", "count"},
	{"machine.replay_minstr_s", "Minstr/s"},
	{"core.manager_ms", "ms"},
	{"bbv.manager_ms", "ms"},
	{"experiment.compare_ms", "ms"},
	{"experiment.render_ms", "ms"},
	{"experiment.trace_cache_entries", "count"},
	{"experiment.trace_cache_mb", "MB"},
	{"experiment.recorded_runs", "count"},
	{"optimize.eval_ms", "ms"},
	{"optimize.instr_per_eval", "count"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p90", "ms"},
	{"store.journal_accept_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.forward_failures", "count"},
	{"go.cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness and its tests
// read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSpec reads and decodes BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// decl returns the declaration of an end-to-end metric, or false.
func (s *benchSpec) decl(name string) (metricDecl, bool) {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}
