// Command acetrace runs a benchmark under the hotspot framework and
// renders the adaptation timeline: which cache sizes were active when,
// at what granularity each unit was reconfigured, and where hotspots
// were promoted — the paper's multi-grain adaptation made visible.
//
// Usage:
//
//	acetrace -bench compress [-cols 100] [-threecu]
//	acetrace -bench jess -events run.jsonl   # JSONL event log alongside
package main

import (
	"flag"
	"fmt"
	"os"

	"acedo"
	"acedo/internal/experiment"
	"acedo/internal/telemetry"
	"acedo/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "compress", "benchmark name")
	cols := flag.Int("cols", 100, "timeline columns")
	threeCU := flag.Bool("threecu", false, "enable the issue-queue unit")
	events := flag.String("events", "", "also write JSONL telemetry events to this file (\"-\" = stdout)")
	flag.Parse()

	spec, ok := acedo.BenchmarkByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "acetrace: unknown benchmark %q\n", *bench)
		return 2
	}
	opt := acedo.DefaultOptions()
	if *threeCU {
		opt = opt.WithThreeCU()
	}

	// The timeline Recorder is itself a telemetry.Sink; an optional
	// JSONL sink tees off the same event stream.
	var rec trace.Recorder
	opt.Sink = &rec
	if *events != "" {
		out := os.Stdout
		if *events != "-" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "acetrace: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		jl := telemetry.NewJSONL(out)
		defer func() {
			if err := jl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "acetrace: events: %v\n", err)
			}
		}()
		opt.Sink = telemetry.Multi(&rec, jl)
	}

	res, err := experiment.Run(spec, experiment.SchemeHotspot, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acetrace: %v\n", err)
		return 1
	}

	fmt.Printf("benchmark %s under the hotspot framework (%d instructions)\n\n",
		spec.Name, res.Instr)
	rec.Timeline(os.Stdout, res.Instr, *cols)

	fmt.Println("\nhotspot configurations:")
	for _, h := range res.Hotspot.Hotspots {
		for i, u := range h.Units {
			fmt.Printf("  %-16s %-4s -> %v (%s)\n", h.Method, u, h.Settings[i], h.State)
		}
	}
	return 0
}
