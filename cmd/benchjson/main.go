// Command benchjson converts `go test -bench` text output into a
// stable JSON record, and compares two such records for regressions.
// It is the dependency-free half of the perf-trajectory tooling: the
// JSON files (BENCH_baseline.json, BENCH_pr3.json, …) are committed
// per PR, `make bench-compare` diffs a fresh run against them, and the
// CI perf-smoke job fails on a throughput regression. When benchstat
// is installed the -raw mode reconstructs its text input from a JSON
// record; nothing here requires it.
//
// Usage:
//
//	go test -bench . | benchjson -o BENCH.json    # record
//	benchjson -compare OLD.json NEW.json          # regression gate
//	benchjson -compare OLD1.json OLD2.json NEW.json
//	benchjson -compare -override BenchmarkSuite=25 OLD.json NEW.json
//	benchjson -raw BENCH.json                     # re-emit benchstat input
//
// With several OLD records the gate compares against the best recorded
// value per benchmark (highest Minstr/s, lowest ns/op) — the committed
// trajectory's high-water mark — so a PR can't claim a win merely by
// diffing against a slow ancestor. -override name=pct loosens (or
// tightens) the threshold for one benchmark, for known-noisy
// wall-clock-dominated suites. A benchmark whose code was deleted
// (the retired list) prints "retired" instead of failing as missing,
// so the committed records never need rewriting. A benchmark no OLD
// record lists prints "new" and has nothing to be gated against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the record layout.
const SchemaVersion = 1

// Record is the committed perf artifact.
type Record struct {
	SchemaVersion int `json:"schema_version"`
	// Context lines from the bench header (goos, goarch, pkg, cpu).
	Context []string `json:"context,omitempty"`
	// Benchmarks is sorted by name.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw preserves the exact benchmark result lines, so benchstat
	// input can be reconstructed from the committed JSON.
	Raw []string `json:"raw"`
}

// Benchmark aggregates every `-count` repetition of one benchmark.
type Benchmark struct {
	Name string `json:"name"`
	Runs []Run  `json:"runs"`
	// Median holds the per-field medians across runs — the numbers
	// the regression gate compares.
	Median Run `json:"median"`
}

// Run is one benchmark result line.
type Run struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "write the JSON record to this file (default stdout)")
	compare := flag.Bool("compare", false, "compare two JSON records: benchjson -compare OLD NEW")
	raw := flag.Bool("raw", false, "print the raw benchmark lines stored in a JSON record")
	metric := flag.String("metric", "Minstr/s", "higher-is-better metric the -compare gate checks when a benchmark reports it")
	threshold := flag.Float64("threshold", 15, "-compare fails when the gated metric regresses by more than this percentage")
	overrides := overrideFlag{}
	flag.Var(&overrides, "override", "per-benchmark threshold override as name=pct (repeatable)")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() < 2 {
			fatalf("-compare needs at least two files: OLD [OLD…] NEW")
		}
		var olds []*Record
		for _, path := range flag.Args()[:flag.NArg()-1] {
			rec, err := load(path)
			if err != nil {
				fatalf("%v", err)
			}
			olds = append(olds, rec)
		}
		new_, err := load(flag.Arg(flag.NArg() - 1))
		if err != nil {
			fatalf("%v", err)
		}
		if !compareRecords(os.Stdout, olds, new_, *metric, *threshold, overrides) {
			os.Exit(1)
		}
	case *raw:
		if flag.NArg() != 1 {
			fatalf("-raw needs exactly one file")
		}
		rec, err := load(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		for _, line := range rec.Context {
			fmt.Println(line)
		}
		for _, line := range rec.Raw {
			fmt.Println(line)
		}
	default:
		var in io.Reader = os.Stdin
		if flag.NArg() == 1 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			in = f
		} else if flag.NArg() > 1 {
			fatalf("at most one input file")
		}
		rec, err := Parse(in)
		if err != nil {
			fatalf("%v", err)
		}
		if len(rec.Benchmarks) == 0 {
			fatalf("no benchmark result lines found in input")
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &Record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// Parse reads `go test -bench` output. Result lines have the shape
//
//	BenchmarkName[-P] <iterations> <value> <unit> [<value> <unit>…]
//
// Context lines (goos/goarch/pkg/cpu) are preserved; everything else
// (PASS, ok, test logs) is ignored.
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{SchemaVersion: SchemaVersion}
	byName := map[string]*Benchmark{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "goos:"),
			strings.HasPrefix(trimmed, "goarch:"),
			strings.HasPrefix(trimmed, "pkg:"),
			strings.HasPrefix(trimmed, "cpu:"):
			rec.Context = append(rec.Context, trimmed)
			continue
		}
		if !strings.HasPrefix(trimmed, "Benchmark") {
			continue
		}
		fields := strings.Fields(trimmed)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		run := Run{Iterations: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			if fields[i+1] == "ns/op" {
				run.NsPerOp = v
			} else {
				run.Metrics[fields[i+1]] = v
			}
		}
		if !ok {
			continue
		}
		if len(run.Metrics) == 0 {
			run.Metrics = nil
		}
		// Strip the -GOMAXPROCS suffix so records from different
		// hosts key the same way.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name}
			byName[name] = b
			order = append(order, name)
		}
		b.Runs = append(b.Runs, run)
		rec.Raw = append(rec.Raw, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(order)
	for _, name := range order {
		b := byName[name]
		b.Median = median(b.Runs)
		rec.Benchmarks = append(rec.Benchmarks, *b)
	}
	return rec, nil
}

// median computes the per-field median across runs (mean of the two
// middle values for even counts).
func median(runs []Run) Run {
	med := func(vs []float64) float64 {
		sort.Float64s(vs)
		n := len(vs)
		if n == 0 {
			return 0
		}
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	out := Run{}
	var ns []float64
	var iters []float64
	keys := map[string]bool{}
	for _, r := range runs {
		ns = append(ns, r.NsPerOp)
		iters = append(iters, float64(r.Iterations))
		for k := range r.Metrics {
			keys[k] = true
		}
	}
	out.NsPerOp = med(ns)
	out.Iterations = int64(med(iters))
	if len(keys) > 0 {
		out.Metrics = map[string]float64{}
		for k := range keys {
			var vs []float64
			for _, r := range runs {
				if v, ok := r.Metrics[k]; ok {
					vs = append(vs, v)
				}
			}
			out.Metrics[k] = med(vs)
		}
	}
	return out
}

// overrideFlag accumulates repeated -override name=pct settings into a
// per-benchmark threshold map.
type overrideFlag map[string]float64

func (o overrideFlag) String() string {
	var names []string
	for k := range o {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, o[k])
	}
	return b.String()
}

func (o overrideFlag) Set(s string) error {
	name, pct, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("override %q: want name=pct", s)
	}
	v, err := strconv.ParseFloat(pct, 64)
	if err != nil || v < 0 {
		return fmt.Errorf("override %q: bad percentage", s)
	}
	o[name] = v
	return nil
}

// retired lists the benchmarks deleted along with the code they
// measured, each with the change that removed it. Committed OLD
// records still carry them; the gate reports them as retired rather
// than missing. The list is fixed in code so that retiring a
// benchmark is a reviewed change, never a command-line escape hatch.
var retired = map[string]string{
	"BenchmarkRecord":         "byte-format recorder deleted; BenchmarkRecordSummary measures the one recorder",
	"BenchmarkReplayParallel": "span-parallel replay deleted; it never beat serial BenchmarkReplay",
}

// compareRecords prints a per-benchmark delta table and returns false
// when any benchmark regresses beyond its threshold: a drop in the
// gated higher-is-better metric when the records report it, otherwise
// a rise in ns/op. With several OLD records the comparison baseline is
// the best recorded value per benchmark across all of them; overrides
// replace the global threshold for the named benchmarks.
func compareRecords(w io.Writer, olds []*Record, new_ *Record, metric string, threshold float64, overrides map[string]float64) bool {
	newBy := map[string]Benchmark{}
	for _, b := range new_.Benchmarks {
		newBy[b.Name] = b
	}
	// Union of OLD benchmark names, each mapped to every record's entry.
	oldBy := map[string][]Benchmark{}
	var names []string
	for _, old := range olds {
		for _, b := range old.Benchmarks {
			if oldBy[b.Name] == nil {
				names = append(names, b.Name)
			}
			oldBy[b.Name] = append(oldBy[b.Name], b)
		}
	}
	sort.Strings(names)
	pass := true
	fmt.Fprintf(w, "%-28s %15s %15s %9s\n", "benchmark", "old", "new", "delta")
	for _, name := range names {
		nb, ok := newBy[name]
		if !ok && retired[name] != "" {
			fmt.Fprintf(w, "%-28s %15s %15s %9s\n", name, "-", "retired", "-")
			continue
		}
		if !ok {
			fmt.Fprintf(w, "%-28s %15s %15s %9s\n", name, "-", "missing", "-")
			pass = false
			continue
		}
		ov, nv, unit, higherBetter := pick(oldBy[name], nb, metric)
		if ov == 0 {
			continue
		}
		limit := threshold
		if o, ok := overrides[name]; ok {
			limit = o
		}
		delta := (nv - ov) / ov * 100
		verdict := ""
		regressed := delta < -limit
		if !higherBetter {
			regressed = delta > limit
		}
		if regressed {
			verdict = "  REGRESSION"
			pass = false
		}
		fmt.Fprintf(w, "%-28s %11.2f %3s %11.2f %3s %+8.1f%%%s\n",
			name, ov, unit, nv, unit, delta, verdict)
	}
	var added []string
	for name := range newBy {
		if oldBy[name] == nil {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "%-28s %15s %15s %9s\n", name, "-", "new", "-")
	}
	if !pass {
		fmt.Fprintf(w, "FAIL: regression beyond %.0f%% threshold\n", threshold)
	}
	return pass
}

// pick selects the compared quantity for a benchmark: the gated metric
// when the new record and at least one old record report it, else
// ns/op. Across several old records it takes the best value — highest
// for the higher-is-better metric, lowest for ns/op — so the gate
// holds the line against the trajectory's high-water mark.
func pick(obs []Benchmark, nb Benchmark, metric string) (ov, nv float64, unit string, higherBetter bool) {
	if n, ok := nb.Median.Metrics[metric]; ok {
		best, have := 0.0, false
		for _, ob := range obs {
			if o, ok := ob.Median.Metrics[metric]; ok && (!have || o > best) {
				best, have = o, true
			}
		}
		if have {
			return best, n, metric, true
		}
	}
	best, have := 0.0, false
	for _, ob := range obs {
		if o := ob.Median.NsPerOp; o > 0 && (!have || o < best) {
			best, have = o, true
		}
	}
	return best, nb.Median.NsPerOp, "ns/op", false
}
