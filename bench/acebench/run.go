package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// plan is how a workload spreads over child processes: group children
// form one repetition; repetitions repeat while the next one still ends
// within the timed budget (at least minReps, at most maxReps if set),
// unless split, where one repetition's children share the budget as
// their timed phase.
type plan struct {
	group   int
	minReps int
	maxReps int
	split   bool
}

// plans holds each workload's process layout. A suite child makes one
// cold pass and the warm comparisons (~9 s on a 2-core host, up to
// ~16 s when the host's memory is contended); at most four, so the
// suite's warm samples stay below the 100 a p90 tail needs. An
// optimize repetition is one search of each benchmark (20–35 s); the
// service runs three rings back to back, each for a third of the
// budget.
var plans = map[string]plan{
	"suite":    {group: 1, minReps: 2, maxReps: 4},
	"optimize": {group: 2, minReps: 1},
	"service":  {group: 3, minReps: 1, split: true},
}

// minSetups is how many set-ups a run times at least: children that
// only set up and exit make up the difference, so setup_s is a median
// of three even where a run has two children.
const minSetups = 3

// workloadOrder is the order a full run takes the workloads in.
var workloadOrder = []string{"suite", "optimize", "service"}

// childRun is one finished child as the parent saw it.
type childRun struct {
	res   *childResult
	setup time.Duration // process start to the ready signal
	rssMB float64       // peak resident set (getrusage Maxrss)
	cpuS  float64       // user + system CPU seconds
}

// record is one run of one workload: what the result line reports plus
// the series and flags compare and the steady-state check need. Runs
// append their record to the -out file as one JSON line.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Children  int               `json:"children"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples counts the operations behind each latency metric.
	Samples map[string]int `json:"samples"`
	// Halves holds each metric's value over the first and the second
	// half of its series (see halves); Drift names the metrics whose
	// halves differ by more than their bound.
	Halves map[string][2]float64 `json:"halves,omitempty"`
	Drift  []string              `json:"drift,omitempty"`
	// Layer and SelfMS are filled by traced runs only.
	Layer  map[string]metric  `json:"layer,omitempty"`
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
	Time   string             `json:"time"`
}

// runConfig is the parsed command line of a benchmark run.
type runConfig struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	spec      *benchSpec
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("acebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: suite, optimize or service (default all three)")
	seed := fs.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := fs.Float64("seconds", 36, "timed budget of one workload run in seconds")
	trace := fs.Int("trace", 0, "1 adds spans and the per-layer probes and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "acebench", "records.jsonl"),
		"file each run's record is appended to; span files go beside it")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (metric bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	cfg := runConfig{workloads: workloadOrder, seed: *seed, seconds: *seconds,
		trace: *trace == 1, out: *out, spec: spec}
	if *workload != "" {
		if _, ok := plans[*workload]; !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		cfg.workloads = []string{*workload}
	}
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return err
	}

	var recs []*record
	for _, w := range cfg.workloads {
		rec, err := runWorkload(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := appendRecord(cfg.out, rec); err != nil {
			return err
		}
		printRecord(os.Stdout, rec, cfg)
		recs = append(recs, rec)
	}
	return json.NewEncoder(os.Stdout).Encode(resultLine(recs, cfg.trace))
}

// runWorkload runs one workload's children (and, traced, the probe
// child) and reduces their reports to a record.
func runWorkload(cfg runConfig, w string) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scratch, err := filepath.Abs(filepath.Join(filepath.Dir(cfg.out), fmt.Sprintf("scratch-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	base := childConfig{Workload: w, Seed: cfg.seed, Trace: cfg.trace, Dir: scratch}

	p := plans[w]
	var runs []*childRun
	start := time.Now()
	for rep := 0; ; rep++ {
		for g := 0; g < p.group; g++ {
			c := base
			c.Index = rep*p.group + g
			if p.split {
				c.Seconds = cfg.seconds / float64(p.group)
			}
			run, err := spawn(self, c)
			if err != nil {
				return nil, err
			}
			runs = append(runs, run)
		}
		// Start another repetition only if, at the pace so far, it
		// ends within the budget.
		done := rep + 1
		if p.split || done == p.maxReps ||
			(done >= p.minReps && time.Since(start).Seconds()*float64(done+1)/float64(done) > cfg.seconds) {
			break
		}
	}
	setups := make([]float64, 0, minSetups)
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
	}
	for len(setups) < minSetups {
		c := base
		c.Index, c.SetupOnly = len(runs)+len(setups), true
		run, err := spawn(self, c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}
	rec, err := reduce(w, runs, setups, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		pc := base
		pc.Workload, pc.Index = "probe", len(runs)
		probe, err := spawn(self, pc)
		if err != nil {
			return nil, err
		}
		var spans []span
		for _, r := range append(runs, probe) {
			spans = append(spans, r.res.Spans...)
		}
		if rec.Layer, err = layerMetrics(runs, probe.res.Layer); err != nil {
			return nil, err
		}
		rec.SelfMS = selfTimes(spans)
		path := filepath.Join(filepath.Dir(cfg.out), "trace-"+w+".json")
		if err := writeJSON(path, spans); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// spawn runs one child process to completion: it times set-up up to
// the child's "ready" line, decodes the JSON result on its last line
// and reads peak RSS and CPU time from the process's rusage.
func spawn(self string, c childConfig) (*childRun, error) {
	args := []string{"child", "-workload", c.Workload, "-seed", strconv.FormatInt(c.Seed, 10),
		"-index", strconv.Itoa(c.Index), "-seconds", strconv.FormatFloat(c.Seconds, 'f', -1, 64),
		"-dir", c.Dir}
	if c.Trace {
		args = append(args, "-trace")
	}
	if c.SetupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	setup := time.Since(start)
	var rest []byte
	if rerr == nil {
		rest, rerr = io.ReadAll(rd)
	}
	werr := cmd.Wait()
	if werr != nil || rerr != nil || line != "ready\n" {
		return nil, fmt.Errorf("%s child %d: %v", c.Workload, c.Index, errors.Join(werr, rerr))
	}
	if c.SetupOnly {
		return &childRun{setup: setup}, nil
	}
	rest = bytes.TrimSpace(rest)
	if i := bytes.LastIndexByte(rest, '\n'); i >= 0 {
		rest = rest[i+1:]
	}
	var res childResult
	if err := json.Unmarshal(rest, &res); err != nil {
		return nil, fmt.Errorf("%s child %d: result: %w", c.Workload, c.Index, err)
	}
	run := &childRun{res: &res, setup: setup}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	run.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return run, nil
}

// reduce turns a workload's child reports and set-up times (seconds,
// in start order) into its end-to-end metrics, sample counts, drift
// flags and oracle totals.
func reduce(w string, runs []*childRun, setup []float64, cfg runConfig) (*record, error) {
	rec := &record{Workload: w, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Children: len(runs), Time: time.Now().UTC().Format(time.RFC3339)}
	var rss, cold, warm []float64
	var colds, warms [][]float64 // per child, for the steady-state check
	var done, doneWall float64
	for _, r := range runs {
		rss = append(rss, r.rssMB)
		cold = append(cold, r.res.Cold...)
		warm = append(warm, r.res.Warm...)
		colds = append(colds, r.res.Cold)
		warms = append(warms, r.res.Warm)
		done += r.res.Done
		doneWall += r.res.DoneWall
		rec.Attempted += r.res.Attempted
		rec.Failed += r.res.Failed
		rec.Failures = append(rec.Failures, r.res.Failures...)
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	tail := func(xs []float64) float64 { return percentile(xs, tailPercentile(len(xs))) }
	// The steady-state check looks at the per-operation series of each
	// child's timed phase; per-child values (set-up, memory, throughput)
	// vary between processes, not within one, and have none.
	series := []struct {
		name   string
		value  float64
		n      int
		stat   func([]float64) float64
		series [][]float64
	}{
		{"setup_s", median(setup), len(setup), nil, nil},
		{"peak_rss_mb", median(rss), len(rss), nil, nil},
		{"cold_ms", median(cold), len(cold), median, colds},
		{"warm_ms", median(warm), len(warm), median, warms},
		{"warm_tail_ms", tail(warm), len(warm), tail, warms},
		{"ops_per_s", done / doneWall, len(runs), nil, nil},
	}
	rec.Metrics = make(map[string]metric)
	rec.Samples = make(map[string]int)
	rec.Halves = make(map[string][2]float64)
	for _, s := range series {
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return nil, fmt.Errorf("no samples for %s", s.name)
		}
		rec.Metrics[s.name] = metric{s.value, unitOf(s.name)}
		rec.Samples[s.name] = s.n
		if s.stat == nil {
			continue
		}
		a, b, ok := halves(s.stat, s.series...)
		if !ok {
			continue
		}
		rec.Halves[s.name] = [2]float64{a, b}
		if d, ok := cfg.spec.decl(s.name); ok && drifted(a, b, d.Bound) {
			rec.Drift = append(rec.Drift, s.name)
		}
	}
	return rec, nil
}

// layerMetrics assembles a traced run's per-layer metrics: the probe
// child's measurements plus the workload children's process-level
// observations (median over children).
func layerMetrics(runs []*childRun, probe map[string]float64) (map[string]metric, error) {
	vals := maps.Clone(probe)
	if vals == nil {
		vals = make(map[string]float64)
	}
	med := func(f func(*childRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	vals["experiment.trace_cache_entries"] = med(func(r *childRun) float64 { return float64(r.res.TraceCacheEntries) })
	vals["experiment.trace_cache_mb"] = med(func(r *childRun) float64 { return r.res.TraceCacheMB })
	vals["experiment.recorded_runs"] = med(func(r *childRun) float64 { return float64(r.res.Recorded) })
	vals["go.cpu_s"] = med(func(r *childRun) float64 { return r.cpuS })
	vals["go.alloc_mb"] = med(func(r *childRun) float64 { return r.res.AllocMB })
	vals["go.gc_cycles"] = med(func(r *childRun) float64 { return float64(r.res.GCCycles) })
	vals["go.gc_pause_ms"] = med(func(r *childRun) float64 { return r.res.GCPauseMS })
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("no measurement for per-layer metric %s", m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, nil
}

// unitOf returns an end-to-end metric's unit.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// resultLine is the last line of a run's output: the oracle totals and
// every end-to-end metric (untraced) or per-layer metric (traced). With
// several workloads, metric names are prefixed "workload/".
func resultLine(recs []*record, traced bool) any {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.Metrics
		if traced {
			ms = r.Layer
		}
		for k, v := range ms {
			if len(recs) > 1 {
				k = r.Workload + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	return out
}

// printRecord writes a run's human-readable report: every end-to-end
// metric with its unit and sample count, the oracle totals, and for a
// traced run the per-layer metrics, each layer's self time and the
// tracing overhead against the latest untraced run of the workload.
func printRecord(w io.Writer, rec *record, cfg runConfig) {
	fmt.Fprintf(w, "%s: seed %d, %d children, ops %d, failed %d\n",
		rec.Workload, rec.Seed, rec.Children, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	var base *record
	if rec.Traced {
		base = lastUntraced(cfg.out, rec.Workload)
	}
	for _, m := range endToEnd {
		v := rec.Metrics[m.name]
		fmt.Fprintf(w, "  %-16s %14.4f %-5s", m.name, v.Value, v.Unit)
		if n, ok := rec.Samples[m.name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		if base != nil {
			b := base.Metrics[m.name].Value
			fmt.Fprintf(w, "  tracing overhead %+.4f (%+.1f%%)", v.Value-b, 100*(v.Value-b)/b)
		}
		fmt.Fprintln(w)
	}
	for _, d := range rec.Drift {
		h := rec.Halves[d]
		fmt.Fprintf(w, "  drift: %s first half %.4g, second half %.4g\n", d, h[0], h[1])
	}
	if !rec.Traced {
		return
	}
	if base == nil {
		fmt.Fprintf(w, "  tracing overhead: no untraced %s record in %s to compare with\n", rec.Workload, cfg.out)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, rec.Layer[m.name].Value, m.unit)
	}
	layers := make([]string, 0, len(rec.SelfMS))
	for l := range rec.SelfMS {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return rec.SelfMS[layers[i]] > rec.SelfMS[layers[j]] })
	fmt.Fprintln(w, "  self time by layer (spans of the workload and the probes):")
	for _, l := range layers {
		fmt.Fprintf(w, "    %-12s %12.1f ms\n", l, rec.SelfMS[l])
	}
}

// lastUntraced returns the newest untraced record of workload w in the
// records file, or nil.
func lastUntraced(path, w string) *record {
	recs, err := readRecords(path)
	if err != nil {
		return nil
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if r := recs[i]; r.Workload == w && !r.Traced {
			return r
		}
	}
	return nil
}

// appendRecord appends rec to the records file as one JSON line.
func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a records file (one JSON record per line).
func readRecords(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*record
	for i, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
