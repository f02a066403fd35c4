package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"acedo/internal/experiment"
)

// childConfig parameterises one child process's share of a workload.
type childConfig struct {
	Workload string
	Seed     int64
	// Index numbers the child within its run; workloads derive
	// per-child inputs (search benchmark, client streams) from it.
	Index int
	// Seconds is the timed-phase length of a time-bounded child
	// (service); the other workloads do a fixed amount of work.
	Seconds float64
	Trace   bool
	// Dir is a scratch directory inside the checkout for on-disk
	// state (the service's data directories, the store probes).
	Dir string
	// Tiny shrinks every workload to smoke-test size (tests only).
	Tiny bool
	// SetupOnly ends the child as soon as its set-up is done: the
	// parent only times it.
	SetupOnly bool
}

// childEnv is what a workload's child function runs with.
type childEnv struct {
	cfg childConfig
	tr  *tracer
	// ready marks the end of set-up; the parent times set-up from the
	// child's start to this signal.
	ready func()
}

// childResult is one child's report to its parent: operation latencies
// by class, the counts behind ops_per_s, oracle outcomes, and the
// layer-level observations of its process.
type childResult struct {
	// Cold and Warm are operation latencies in milliseconds, in the
	// order the operations completed (the steady-state check splits
	// them into halves). Cold operations had nothing cached; warm ones
	// reused a cached trace or result.
	Cold []float64 `json:"cold_ms,omitempty"`
	Warm []float64 `json:"warm_ms,omitempty"`
	// Done operations took DoneWall seconds; ops_per_s is their ratio
	// over all children.
	Done     float64 `json:"done"`
	DoneWall float64 `json:"done_wall_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Recorded counts runs that recorded a trace in this process.
	Recorded          int     `json:"recorded_runs"`
	TraceCacheEntries int     `json:"trace_cache_entries"`
	TraceCacheMB      float64 `json:"trace_cache_mb"`

	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`

	// Layer carries the probe child's per-layer measurements.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// fail records one failed operation and what its check saw.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills the process-level observations: trace-cache state,
// allocation and GC totals, and the recorded spans.
func (r *childResult) finish(env *childEnv) {
	tc := experiment.CurrentTraceCacheStats()
	r.TraceCacheEntries = tc.Entries
	r.TraceCacheMB = float64(tc.Bytes) / (1 << 20)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	r.GCCycles = ms.NumGC
	r.GCPauseMS = float64(ms.PauseTotalNs) / 1e6
	r.Spans = env.tr.collected()
}

// childFuncs maps a workload (or the probe battery) to the function a
// child process runs.
var childFuncs = map[string]func(*childEnv) (*childResult, error){
	"suite":    suiteChild,
	"optimize": optimizeChild,
	"service":  serviceChild,
	"probe":    probeChild,
}

// childMain is the entry point of a child process: it runs one share
// of a workload, prints "ready" when set-up ends and its JSON result
// as the last line.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var cfg childConfig
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.Index, "index", 0, "child index within the run")
	fs.Float64Var(&cfg.Seconds, "seconds", 0, "timed-phase length")
	fs.BoolVar(&cfg.Trace, "trace", false, "record spans")
	fs.StringVar(&cfg.Dir, "dir", "", "scratch directory")
	fs.BoolVar(&cfg.SetupOnly, "setup-only", false, "exit once set-up is done")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := childFuncs[cfg.Workload]
	if !ok {
		return fmt.Errorf("child: unknown workload %q", cfg.Workload)
	}
	env := &childEnv{cfg: cfg, ready: func() {
		fmt.Println("ready")
		if cfg.SetupOnly {
			os.Exit(0) // the parent removes the scratch directory
		}
	}}
	if cfg.Trace {
		env.tr = newTracer(cfg.Index)
	}
	res, err := fn(env)
	if err != nil {
		return err
	}
	res.finish(env)
	return json.NewEncoder(os.Stdout).Encode(res)
}
