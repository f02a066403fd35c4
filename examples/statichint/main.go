// Statichint is the ablation for the paper's Section 6 future-work
// proposal: the JIT compiler estimates each hotspot's required cache
// configuration by static code analysis, eliminating the tuning
// descent (and its latency and overhead) entirely.
package main

import (
	"flag"
	"fmt"
	"log"

	"acedo"
	"acedo/internal/experiment"
)

func main() {
	bench := flag.String("bench", "compress", "benchmark name")
	flag.Parse()

	spec, ok := acedo.BenchmarkByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	opt := acedo.DefaultOptions()

	rs, err := experiment.RunSchemes(spec, opt, []acedo.Scheme{acedo.SchemeBaseline, acedo.SchemeHotspot})
	if err != nil {
		log.Fatal(err)
	}
	base, tuned := rs[0], rs[1]
	// The hint is built from the program and the machine's cache
	// ladders before the run; the hinted run replays the baseline's
	// recorded trace.
	prog, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	hintOpt := opt
	hintOpt.Core.StaticHint = acedo.NewAnalyzer(prog).HintFor(opt.Machine)
	hs, err := experiment.RunSchemes(spec, hintOpt, []acedo.Scheme{acedo.SchemeHotspot})
	if err != nil {
		log.Fatal(err)
	}
	hinted := hs[0]
	hintRep := hinted.Hotspot

	saving := func(b, s float64) float64 { return 100 * (b - s) / b }
	fmt.Printf("benchmark %s: static-hint ablation (paper Section 6)\n\n", spec.Name)
	fmt.Printf("%-26s %12s %12s\n", "", "tuned", "static hint")
	fmt.Printf("%-26s %12d %12d\n", "tuning measurements",
		tuned.Hotspot.L1D.Tunings+tuned.Hotspot.L2.Tunings,
		hintRep.L1D.Tunings+hintRep.L2.Tunings)
	fmt.Printf("%-26s %11.1f%% %11.1f%%\n", "L1D coverage",
		100*tuned.Hotspot.L1D.Coverage, 100*hintRep.L1D.Coverage)
	fmt.Printf("%-26s %11.1f%% %11.1f%%\n", "L1D energy saving",
		saving(base.L1DEnergyNJ, tuned.L1DEnergyNJ), saving(base.L1DEnergyNJ, hinted.L1DEnergyNJ))
	fmt.Printf("%-26s %11.1f%% %11.1f%%\n", "L2 energy saving",
		saving(base.L2EnergyNJ, tuned.L2EnergyNJ), saving(base.L2EnergyNJ, hinted.L2EnergyNJ))
	fmt.Printf("%-26s %11.2f%% %11.2f%%\n", "slowdown",
		100*(float64(tuned.Cycles)/float64(base.Cycles)-1),
		100*(float64(hinted.Cycles)/float64(base.Cycles)-1))

	fmt.Println("\nper-hotspot hinted configurations:")
	for _, h := range hintRep.Hotspots {
		for i, u := range h.Units {
			fmt.Printf("  %-14s %-4s -> %3d KB  (state %s, descent skipped: %v)\n",
				h.Method, u, h.Settings[i]/1024,
				h.State, hintRep.L1D.Tunings+hintRep.L2.Tunings == 0)
		}
	}
}
