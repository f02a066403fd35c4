// Warmstart demonstrates DO-database persistence: the tuning outcomes
// of one run are exported and fed to a second run of the same program,
// which then configures every recurring hotspot at promotion time with
// zero tuning measurements — the cross-run analogue of the paper's
// zero-latency recurring-phase identification.
package main

import (
	"flag"
	"fmt"
	"log"

	"acedo"
	"acedo/internal/experiment"
)

// run executes the benchmark under the hotspot framework, warm-started
// from db when it is non-nil; it replays the benchmark's cached trace
// once one has been recorded.
func run(spec acedo.BenchmarkSpec, db *acedo.Database) *acedo.Result {
	opt := acedo.DefaultOptions()
	opt.Core.WarmStart = db
	rs, err := experiment.RunSchemes(spec, opt, []acedo.Scheme{acedo.SchemeHotspot})
	if err != nil {
		log.Fatal(err)
	}
	return rs[0]
}

func main() {
	bench := flag.String("bench", "compress", "benchmark name")
	flag.Parse()

	spec, ok := acedo.BenchmarkByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	cold := run(spec, nil)
	db := cold.Hotspot.Database()
	blob, err := db.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run:  %d tuning measurements, %.3g mJ cache energy\n",
		cold.Hotspot.L1D.Tunings+cold.Hotspot.L2.Tunings,
		(cold.L1DEnergyNJ+cold.L2EnergyNJ)/1e6)
	fmt.Printf("exported DO database: %d tuned hotspots, %d bytes of JSON\n\n",
		len(db.Hotspots), len(blob))

	// A fresh process would ParseDatabase(blob); round-trip it here
	// to prove the serialization carries everything needed.
	restored, err := acedo.ParseDatabase(blob)
	if err != nil {
		log.Fatal(err)
	}
	warm := run(spec, restored)
	warmRep := warm.Hotspot
	fmt.Printf("warm run:  %d tuning measurements, %.3g mJ cache energy\n",
		warmRep.L1D.Tunings+warmRep.L2.Tunings,
		(warm.L1DEnergyNJ+warm.L2EnergyNJ)/1e6)
	fmt.Printf("hotspots configured directly from the database: %d of %d\n",
		warmRep.WarmStarts, warmRep.L1D.Hotspots+warmRep.L2.Hotspots)

	fmt.Println("\nsaved configurations:")
	for _, h := range db.Hotspots {
		fmt.Printf("  %-16s %-5s -> setting %v (tuned IPC %.2f)\n",
			h.Method, h.Class, h.Config, h.TunedIPC)
	}
}
