package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// Verdicts of compare.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// comparison is one (workload, metric) row of compare's report.
type comparison struct {
	workload, metric string
	a, b             [3]float64 // quartiles of each side
	pairs, wins      int
	verdict, reason  string
}

// judge applies the rule for claiming a gain
// and the benchmark's regression bound to one metric's paired runs,
// where a[i] and b[i] are the parent's and the change's i-th runs:
//
//   - improved: the change wins at least 9/10 of the pairs and its
//     median beats the parent's by more than the parent's
//     interquartile range;
//   - unresolved: either side drifted within a run, or the parent's
//     runs spread wider than the bound (unless every run of the change
//     beats every run of the parent);
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged otherwise.
func judge(a, b []float64, higherBetter bool, bound float64, drift bool) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b), pairs: min(len(a), len(b))}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	ma, mb := c.a[1], c.b[1]
	iqrA := c.a[2] - c.a[0]
	worse := (mb - ma) / math.Abs(ma) // relative change in the worse direction
	if higherBetter {
		worse = -worse
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case c.pairs == 0:
		c.verdict, c.reason = unresolved, "no pairs"
	case drift:
		c.verdict, c.reason = unresolved, "drift within a run"
	case 10*c.wins >= 9*c.pairs && better(mb, ma) && math.Abs(mb-ma) > iqrA:
		c.verdict = improved
	case spread(a) > bound && !allBetter:
		c.verdict, c.reason = unresolved, fmt.Sprintf("parent spread %.1f%% exceeds bound %.0f%%", 100*spread(a), 100*bound)
	case worse > bound:
		c.verdict, c.reason = regressed, fmt.Sprintf("median %.1f%% worse, bound %.0f%%", 100*worse, 100*bound)
	default:
		c.verdict = unchanged
	}
	return c
}

// compareSets compares two sets of untraced records (parent a, change
// b) per workload and end-to-end metric. Within a workload the i-th
// records of the two sets form a pair.
func compareSets(spec *benchSpec, a, b []*record) []comparison {
	byWorkload := func(rs []*record) map[string][]*record {
		m := make(map[string][]*record)
		for _, r := range rs {
			if !r.Traced {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var out []comparison
	for _, w := range workloadOrder {
		ra, rb := wa[w], wb[w]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		n := min(len(ra), len(rb))
		for _, d := range spec.EndToEnd {
			var xa, xb []float64
			drift := false
			for i := 0; i < n; i++ {
				xa = append(xa, ra[i].Metrics[d.Name].Value)
				xb = append(xb, rb[i].Metrics[d.Name].Value)
				drift = drift || slices.Contains(ra[i].Drift, d.Name) || slices.Contains(rb[i].Drift, d.Name)
			}
			c := judge(xa, xb, d.Better == "higher", d.Bound, drift)
			c.workload, c.metric = w, d.Name
			out = append(out, c)
		}
	}
	return out
}

// printComparisons writes compare's table.
func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-9s %-13s %28s %28s %7s  %s\n", "workload", "metric",
		"A median [q1 q3]", "B median [q1 q3]", "B won", "verdict")
	for _, c := range cs {
		q := func(v [3]float64) string { return fmt.Sprintf("%.4g [%.4g %.4g]", v[1], v[0], v[2]) }
		fmt.Fprintf(w, "%-9s %-13s %28s %28s %3d/%-3d  %s", c.workload, c.metric, q(c.a), q(c.b), c.wins, c.pairs, c.verdict)
		if c.reason != "" {
			fmt.Fprintf(w, " (%s)", c.reason)
		}
		fmt.Fprintln(w)
	}
}

// compareMain is `acebench compare [-spec BENCHMARK.json] A B`: A holds
// the parent's records, B the change's.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (directions and bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: want two record files (parent, change), got %d", fs.NArg())
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	printComparisons(os.Stdout, compareSets(spec, a, b))
	return nil
}

// abMain is `acebench ab [-pairs N] BIN_A BIN_B`: it runs two acebench
// binaries (built from the parent and the change) N times per workload,
// alternating which runs first, with the i-th pair sharing seed+i, and
// compares the two record sets.
func abMain(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	pairs := fs.Int("pairs", 10, "runs of each binary per workload")
	seed := fs.Int64("seed", 1, "seed of the first pair")
	seconds := fs.Float64("seconds", 36, "timed budget of one run")
	workload := fs.String("workload", "", "one workload (default all three)")
	dir := fs.String("out", filepath.Join(".bench_build", "acebench", "ab"), "directory for a.jsonl and b.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (directions and bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("ab: want two acebench binaries (parent, change), got %d", fs.NArg())
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	bins := []string{fs.Arg(0), fs.Arg(1)}
	outs := []string{filepath.Join(*dir, "a.jsonl"), filepath.Join(*dir, "b.jsonl")}
	for _, o := range outs {
		if err := os.Remove(o); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	workloads := workloadOrder
	if *workload != "" {
		workloads = []string{*workload}
	}
	for _, w := range workloads {
		for i := 0; i < *pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs run A first, odd pairs B first
				cmd := exec.Command(bins[side], "-workload", w, "-seed", strconv.FormatInt(*seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "-out", outs[side], "-spec", *specPath)
				cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("ab: %s %s pair %d: %w", bins[side], w, i, err)
				}
			}
		}
	}
	a, err := readRecords(outs[0])
	if err != nil {
		return err
	}
	b, err := readRecords(outs[1])
	if err != nil {
		return err
	}
	printComparisons(os.Stdout, compareSets(spec, a, b))
	return nil
}
