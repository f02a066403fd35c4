// Command acesim runs one benchmark under one resource-adaptation
// scheme and prints the run's statistics.
//
// Usage:
//
//	acesim -bench compress -scheme hotspot [-scale 10] [-max 0]
//	acesim -bench db -scheme all
//	acesim -bench jess -scheme hotspot -events run.jsonl -interval 50000
//	acesim -bench jess -scheme hotspot -faults plan.json -deadline 60s
//	acesim -bench mpeg -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"acedo/internal/experiment"
	"acedo/internal/fault"
	"acedo/internal/telemetry"
	"acedo/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "compress", "benchmark name (compress|db|jack|javac|jess|mpeg|mtrt)")
	scheme := flag.String("scheme", "all", "scheme: baseline|bbv|wss|hotspot|all")
	threeCU := flag.Bool("threecu", false, "enable the issue-queue unit (third CU)")
	scale := flag.Uint64("scale", 10, "scale divisor for instruction-count parameters (1 = paper scale)")
	maxInstr := flag.Uint64("max", 0, "instruction budget (0 = run to completion)")
	loops := flag.Int("loops", 0, "override the benchmark's main loop count (0 = default)")
	events := flag.String("events", "", "write JSONL telemetry events to this file (\"-\" = stdout)")
	interval := flag.Uint64("interval", 0, "interval-metric sampling period in retired instructions (0 = the L1D reconfiguration interval)")
	faults := flag.String("faults", "", "arm the fault-injection plan in this JSON file (chaos testing)")
	noReplay := flag.Bool("noreplay", false, "with -scheme all: disable the record-once/replay-many fast path")
	deadline := flag.Duration("deadline", 0, "wall-clock limit per run, e.g. 60s (0 = unbounded)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "acesim: unknown benchmark %q\n", *bench)
		return 2
	}
	if *loops > 0 {
		spec = spec.WithMainLoops(*loops)
	}

	opt := experiment.DefaultOptions()
	if *scale != 10 {
		opt = experiment.OptionsAtScale(*scale)
	}
	if *threeCU {
		opt = opt.WithThreeCU()
	}
	opt.MaxInstr = *maxInstr
	opt.TelemetryInterval = *interval
	opt.Deadline = *deadline
	opt.NoReplay = *noReplay
	if *faults != "" {
		plan, err := fault.LoadPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
			return 1
		}
		opt.Faults = plan
	}

	var eventSink *telemetry.JSONL
	if *events != "" {
		out := os.Stdout
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		eventSink = telemetry.NewJSONL(out)
		defer func() {
			if err := eventSink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "acesim: events: %v\n", err)
			}
		}()
		opt.Sink = eventSink
	}

	schemes := map[string][]experiment.Scheme{
		"baseline": {experiment.SchemeBaseline},
		"bbv":      {experiment.SchemeBBV},
		"wss":      {experiment.SchemeWSS},
		"hotspot":  {experiment.SchemeHotspot},
		"all":      {experiment.SchemeBaseline, experiment.SchemeBBV, experiment.SchemeHotspot},
	}[*scheme]
	if schemes == nil {
		fmt.Fprintf(os.Stderr, "acesim: unknown scheme %q\n", *scheme)
		return 2
	}

	// -scheme all takes the record-once/replay-many fast path: the
	// baseline run records the benchmark's architectural trace and the
	// other schemes replay it (bit-identical results, a fraction of
	// the wall-clock). Single-scheme runs execute directly.
	if len(schemes) > 1 {
		results, err := experiment.RunSchemes(spec, opt, schemes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
			return 1
		}
		if eventSink != nil {
			if err := eventSink.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "acesim: events: %v\n", err)
				return 1
			}
		}
		for _, res := range results {
			printRun(res)
		}
		return 0
	}
	for _, sch := range schemes {
		res, err := experiment.Run(spec, sch, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
			return 1
		}
		// With -events - the event stream shares stdout with the
		// stats: complete any buffered event line before printing.
		if eventSink != nil {
			if err := eventSink.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "acesim: events: %v\n", err)
				return 1
			}
		}
		printRun(res)
	}
	return 0
}

// writeMemProfile dumps a post-GC heap profile, if requested.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "acesim: %v\n", err)
	}
}

func printRun(r *experiment.Result) {
	fmt.Printf("%s / %s (%s, %.2fs)\n", r.Benchmark, r.Scheme, r.Disposition, r.Wall.Seconds())
	fmt.Printf("  instructions  %d\n", r.Instr)
	fmt.Printf("  cycles        %d (IPC %.3f)\n", r.Cycles, r.IPC)
	fmt.Printf("  L1D energy    %.4g mJ\n", r.L1DEnergyNJ/1e6)
	fmt.Printf("  L2 energy     %.4g mJ\n", r.L2EnergyNJ/1e6)
	if r.IQEnergyNJ > 0 {
		fmt.Printf("  IQ energy     %.4g mJ\n", r.IQEnergyNJ/1e6)
	}
	b := r.Breakdown
	fmt.Printf("  cycle mix     issue=%d stall=%d branch=%d reconf=%d\n",
		b.IssueCycles, b.StallCycles, b.BranchCycles, b.ReconfCycles)
	fmt.Printf("  events        L1miss=%d L2miss=%d tlbmiss=%d mispred=%d reconfigs=%d\n",
		b.L1Misses, b.L2Misses, b.TLBMisses, b.Mispredicts, b.Reconfigs)
	fmt.Printf("  DO system     hotspots=%d hotspot-instr=%.1f%% overhead-instr=%d\n",
		r.AOS.Promotions, 100*float64(r.AOS.HotspotInstr)/float64(r.Instr), r.AOS.OverheadInstr)
	if h := r.Hotspot; h != nil {
		fmt.Printf("  framework     L1D{n=%d tuned=%d tunings=%d reconfigs=%d coverage=%.1f%%}\n",
			h.L1D.Hotspots, h.L1D.Tuned, h.L1D.Tunings, h.L1D.Reconfigs, 100*h.L1D.Coverage)
		fmt.Printf("                L2{n=%d tuned=%d tunings=%d reconfigs=%d coverage=%.1f%%}\n",
			h.L2.Hotspots, h.L2.Tuned, h.L2.Tunings, h.L2.Reconfigs, 100*h.L2.Coverage)
		fmt.Printf("                unmanaged=%d retunes=%d perCoV=%.1f%% interCoV=%.1f%%\n",
			h.Unmanaged, h.Retunes, 100*h.PerHotspotIPCCoV, 100*h.InterHotspotIPCCoV)
	}
	if b := r.BBV; b != nil {
		fmt.Printf("  BBV           intervals=%d stable=%.1f%% phases=%d tuned=%d\n",
			b.Intervals, 100*b.StablePct, b.Phases, b.TunedPhases)
		fmt.Printf("                tunings=%d reconfigs=%d coverage=%.1f%% inTuned=%.1f%%\n",
			b.Tunings, b.Reconfigs, 100*b.Coverage, 100*b.PctIntervalsInTuned)
	}
}
