// Command acetables regenerates every table and figure of the paper's
// evaluation (DESIGN.md §5) by running the whole benchmark suite under
// the baseline, BBV, and hotspot schemes.
//
// Usage:
//
//	acetables                  # everything
//	acetables -table 4         # one table
//	acetables -figure 3        # one figure
//	acetables -scale 10        # scale divisor (default 10; 1 = paper scale)
//	acetables -json out.json   # schema-stable bench snapshot ("-" = stdout)
//	acetables -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/fault"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.Int("table", 0, "print only this table (1-6)")
	figure := flag.Int("figure", 0, "print only this figure (1, 3, 4)")
	scale := flag.Uint64("scale", 10, "scale divisor for instruction-count parameters")
	threeCU := flag.Bool("threecu", false, "run the three-CU extension (adds the issue-queue unit) and print its table")
	jsonOut := flag.String("json", "", "write the suite's schema-stable bench snapshot JSON to this file instead of tables (\"-\" = stdout)")
	runMeta := flag.Bool("runmeta", false, "include per-run wall time and record/replay disposition in the -json snapshot (schema-additive fields)")
	noReplay := flag.Bool("noreplay", false, "disable the record-once/replay-many fast path and execute every scheme directly")
	faults := flag.String("faults", "", "arm the fault-injection plan in this JSON file (chaos testing)")
	detectors := flag.Bool("detectors", false, "run the phase-detector comparison (BBV vs working-set signatures vs hotspot)")
	quiet := flag.Bool("q", false, "suppress per-benchmark progress lines on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	opt := experiment.OptionsAtScale(*scale)
	if *threeCU {
		opt = opt.WithThreeCU()
	}
	opt.NoReplay = *noReplay
	if *faults != "" {
		plan, err := fault.LoadPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		opt.Faults = plan
	}
	if !*quiet {
		opt.Log = os.Stderr
	}
	if *detectors {
		start := time.Now()
		cs, err := experiment.RunDetectorSuite(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "acetables: 28 simulations in %.1fs\n", time.Since(start).Seconds())
		experiment.DetectorTable(os.Stdout, cs)
		return 0
	}
	// Open the snapshot output before the multi-second suite run so a
	// bad path fails immediately.
	jsonFile := os.Stdout
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		defer f.Close()
		jsonFile = f
	}

	start := time.Now()
	res, err := experiment.Collect(opt)
	if err != nil {
		// Collect isolates failures: render whatever completed, then
		// exit nonzero so scripts still see the failure.
		fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
		if len(res.Comparisons) == 0 {
			return 1
		}
		fmt.Fprintf(os.Stderr, "acetables: rendering %d completed benchmark(s)\n",
			len(res.Comparisons))
	}
	fmt.Fprintf(os.Stderr, "acetables: 21 simulations in %.1fs\n", time.Since(start).Seconds())
	code := 0
	if err != nil {
		code = 1
	}

	w := os.Stdout
	if *jsonOut != "" {
		snap := res.Snapshot()
		if *runMeta {
			snap = res.SnapshotWithMeta()
		}
		if err := snap.WriteJSON(jsonFile); err != nil {
			fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
			return 1
		}
		return code
	}
	if *threeCU {
		res.ExtensionThreeCU(w)
		return code
	}
	switch {
	case *table == 1:
		res.Table1(w)
	case *table == 2:
		res.Table2(w)
	case *table == 3:
		res.Table3(w)
	case *table == 4:
		res.Table4(w)
	case *table == 5:
		res.Table5(w)
	case *table == 6:
		res.Table6(w)
	case *figure == 1:
		res.Figure1(w)
	case *figure == 3:
		res.Figure3(w)
	case *figure == 4:
		res.Figure4(w)
	case *table == 0 && *figure == 0:
		res.WriteAll(w)
	default:
		fmt.Fprintf(os.Stderr, "acetables: no such table/figure\n")
		return 2
	}
	return code
}

// writeMemProfile dumps a post-GC heap profile, if requested.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "acetables: %v\n", err)
	}
}
