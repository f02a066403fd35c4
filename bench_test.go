// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §5), one testing.B benchmark per artifact,
// plus the two ablations and micro-benchmarks of the substrates.
//
// The table/figure benches run shortened suite variants (the outer
// loop count is reduced) so a benchmarking pass stays in seconds; the
// full-length tables come from `go run ./cmd/acetables`. Derived
// paper metrics are attached with b.ReportMetric, so `go test -bench .`
// prints the reproduced numbers alongside the timings.
package acedo_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"acedo"
	"acedo/internal/core"
	"acedo/internal/experiment"
	"acedo/internal/machine"
	"acedo/internal/rtrace"
	"acedo/internal/stats"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// benchLoops shortens every benchmark for the testing.B harness.
const benchLoops = 4

func shrunkSuite() []acedo.BenchmarkSpec {
	var out []acedo.BenchmarkSpec
	for _, s := range acedo.Suite() {
		out = append(out, s.WithMainLoops(benchLoops))
	}
	return out
}

var (
	suiteOnce sync.Once
	suiteRes  *acedo.SuiteResults
	suiteErr  error
)

// collectShrunkSuite runs the shortened 7×3 evaluation once and caches
// it; the render-side of every table bench reuses it so the whole
// bench file completes in seconds.
func collectShrunkSuite(b *testing.B) *acedo.SuiteResults {
	b.Helper()
	suiteOnce.Do(func() {
		opt := acedo.DefaultOptions()
		var cs []*acedo.Comparison
		for _, s := range shrunkSuite() {
			c, err := acedo.CompareSchemes(s, opt)
			if err != nil {
				suiteErr = err
				return
			}
			cs = append(cs, c)
		}
		suiteRes = &acedo.SuiteResults{Options: opt, Comparisons: cs}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteRes
}

// runOne executes one shortened benchmark under one scheme.
func runOne(b *testing.B, name string, scheme acedo.Scheme) *acedo.Result {
	b.Helper()
	spec, ok := acedo.BenchmarkByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	res, err := acedo.RunBenchmark(spec.WithMainLoops(benchLoops), scheme, acedo.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// recordedTrace records spec's baseline trace (or fetches it from the
// process-wide cache) and resets the timer.
func recordedTrace(b *testing.B, spec acedo.BenchmarkSpec, opt acedo.Options) *rtrace.Trace {
	b.Helper()
	_, tr, err := experiment.RecordedBaseline(spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	if tr == nil {
		b.Fatal("baseline recording not retained")
	}
	b.ResetTimer()
	return tr
}

// BenchmarkTable1 measures the hotspot identification latency that
// Table 1 contrasts with the temporal approaches' per-recurrence
// latency.
func BenchmarkTable1(b *testing.B) {
	var ident float64
	for i := 0; i < b.N; i++ {
		r := runOne(b, "compress", acedo.SchemeHotspot)
		ident = float64(r.AOS.IdentLatencyInstr) / float64(r.Instr)
	}
	b.ReportMetric(100*ident, "ident-latency-%")
	res := collectShrunkSuite(b)
	res.Table1(io.Discard)
}

// BenchmarkTable2 exercises machine construction at the paper's
// Table 2 configuration.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := acedo.NewMachine(acedo.PaperMachineConfig(10)); err != nil {
			b.Fatal(err)
		}
	}
	collectShrunkSuite(b).Table2(io.Discard)
}

// BenchmarkTable3 exercises workload generation for the whole suite.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range acedo.Suite() {
			if _, err := s.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
	collectShrunkSuite(b).Table3(io.Discard)
}

// BenchmarkFigure1 regenerates the stable/transitional distribution:
// one BBV-managed run per iteration, the paper's most and least stable
// benchmarks.
func BenchmarkFigure1(b *testing.B) {
	var stableJack, stableJavac float64
	for i := 0; i < b.N; i++ {
		stableJack = runOne(b, "jack", acedo.SchemeBBV).BBV.StablePct
		stableJavac = runOne(b, "javac", acedo.SchemeBBV).BBV.StablePct
	}
	b.ReportMetric(100*stableJack, "jack-stable-%")
	b.ReportMetric(100*stableJavac, "javac-stable-%")
	collectShrunkSuite(b).Figure1(io.Discard)
}

// BenchmarkTable4 regenerates the hotspot runtime characteristics.
func BenchmarkTable4(b *testing.B) {
	var hotFrac float64
	var promos uint64
	for i := 0; i < b.N; i++ {
		r := runOne(b, "db", acedo.SchemeHotspot)
		hotFrac = float64(r.AOS.HotspotInstr) / float64(r.Instr)
		promos = r.AOS.Promotions
	}
	b.ReportMetric(100*hotFrac, "code-in-hotspots-%")
	b.ReportMetric(float64(promos), "hotspots")
	collectShrunkSuite(b).Table4(io.Discard)
}

// BenchmarkTable5 regenerates the tuned-fraction comparison.
func BenchmarkTable5(b *testing.B) {
	var tunedHot, tunedBBV float64
	for i := 0; i < b.N; i++ {
		tunedHot = runOne(b, "jess", acedo.SchemeHotspot).Hotspot.TunedPct
		tunedBBV = runOne(b, "jess", acedo.SchemeBBV).BBV.PctIntervalsInTuned
	}
	b.ReportMetric(100*tunedHot, "hotspots-tuned-%")
	b.ReportMetric(100*tunedBBV, "bbv-intervals-in-tuned-%")
	collectShrunkSuite(b).Table5(io.Discard)
}

// BenchmarkTable6 regenerates the tunings/reconfigurations/coverage
// accounting.
func BenchmarkTable6(b *testing.B) {
	var l1dRec, l2Rec float64
	for i := 0; i < b.N; i++ {
		h := runOne(b, "mtrt", acedo.SchemeHotspot).Hotspot
		l1dRec, l2Rec = float64(h.L1D.Reconfigs), float64(h.L2.Reconfigs)
	}
	b.ReportMetric(l1dRec, "L1D-reconfigs")
	b.ReportMetric(l2Rec, "L2-reconfigs")
	collectShrunkSuite(b).Table6(io.Discard)
}

// BenchmarkFigure3 regenerates the headline energy result across the
// full (shortened) suite.
func BenchmarkFigure3(b *testing.B) {
	var l1dHot, l1dBBV, l2Hot, l2BBV []float64
	for i := 0; i < b.N; i++ {
		l1dHot, l1dBBV, l2Hot, l2BBV = nil, nil, nil, nil
		for _, s := range shrunkSuite() {
			c, err := acedo.CompareSchemes(s, acedo.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			l1dHot = append(l1dHot, c.L1DSavingHot)
			l1dBBV = append(l1dBBV, c.L1DSavingBBV)
			l2Hot = append(l2Hot, c.L2SavingHot)
			l2BBV = append(l2BBV, c.L2SavingBBV)
		}
	}
	b.ReportMetric(100*stats.Mean(l1dHot), "L1D-saving-hotspot-%")
	b.ReportMetric(100*stats.Mean(l1dBBV), "L1D-saving-bbv-%")
	b.ReportMetric(100*stats.Mean(l2Hot), "L2-saving-hotspot-%")
	b.ReportMetric(100*stats.Mean(l2BBV), "L2-saving-bbv-%")
	collectShrunkSuite(b).Figure3(io.Discard)
}

// BenchmarkFigure4 regenerates the performance-degradation figure on
// two representative benchmarks.
func BenchmarkFigure4(b *testing.B) {
	var slowHot, slowBBV float64
	for i := 0; i < b.N; i++ {
		spec, _ := acedo.BenchmarkByName("compress")
		c, err := acedo.CompareSchemes(spec.WithMainLoops(benchLoops), acedo.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		slowHot, slowBBV = c.SlowdownHot, c.SlowdownBBV
	}
	b.ReportMetric(100*slowHot, "slowdown-hotspot-%")
	b.ReportMetric(100*slowBBV, "slowdown-bbv-%")
	collectShrunkSuite(b).Figure4(io.Discard)
}

// BenchmarkAblationDecoupling contrasts CU decoupling with monolithic
// 16-combination tuning (DESIGN.md experiment A1).
func BenchmarkAblationDecoupling(b *testing.B) {
	var tunedDec, tunedMono float64
	for i := 0; i < b.N; i++ {
		spec, _ := acedo.BenchmarkByName("jess")
		spec = spec.WithMainLoops(benchLoops)
		opt := acedo.DefaultOptions()
		dec, err := experiment.Run(spec, acedo.SchemeHotspot, opt)
		if err != nil {
			b.Fatal(err)
		}
		opt.Core.Mode = core.ModeMonolithic
		mono, err := experiment.Run(spec, acedo.SchemeHotspot, opt)
		if err != nil {
			b.Fatal(err)
		}
		tunedDec, tunedMono = dec.Hotspot.TunedPct, mono.Hotspot.TunedPct
	}
	b.ReportMetric(100*tunedDec, "tuned-decoupled-%")
	b.ReportMetric(100*tunedMono, "tuned-monolithic-%")
}

// BenchmarkAblationStaticHint measures the zero-descent configuration
// path (DESIGN.md experiment A2): compress's trace is recorded once
// outside the timer, then each iteration replays it under the hotspot
// scheme with the static analyzer's hints.
func BenchmarkAblationStaticHint(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("compress")
	spec = spec.WithMainLoops(benchLoops)
	opt := acedo.DefaultOptions()
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	opt.Core.StaticHint = acedo.NewAnalyzer(prog).HintFor(opt.Machine)
	tr := recordedTrace(b, spec, opt)
	var tunings uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.ReplayScheme(spec, acedo.SchemeHotspot, opt, tr)
		if err != nil {
			b.Fatal(err)
		}
		tunings = r.Hotspot.L1D.Tunings + r.Hotspot.L2.Tunings
	}
	b.ReportMetric(float64(tunings), "tuning-measurements")
}

// BenchmarkExtensionThreeCU runs the three-CU extension (issue queue
// as a third configurable unit): BBV faces 64 combinatorial
// configurations while CU decoupling still tests 4 per hotspot.
func BenchmarkExtensionThreeCU(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("jess")
	spec = spec.WithMainLoops(benchLoops)
	var iqHot, iqBBV float64
	for i := 0; i < b.N; i++ {
		c, err := acedo.CompareSchemes(spec, acedo.DefaultOptions().WithThreeCU())
		if err != nil {
			b.Fatal(err)
		}
		iqHot, iqBBV = c.IQSavingHot, c.IQSavingBBV
	}
	b.ReportMetric(100*iqHot, "IQ-saving-hotspot-%")
	b.ReportMetric(100*iqBBV, "IQ-saving-bbv-%")
}

// BenchmarkExtensionPredictor runs the BBV comparator with the
// next-phase predictor the paper deliberately omitted.
func BenchmarkExtensionPredictor(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("mtrt")
	spec = spec.WithMainLoops(benchLoops)
	var acc, cov float64
	for i := 0; i < b.N; i++ {
		opt := acedo.DefaultOptions()
		opt.BBV.UsePredictor = true
		r, err := experiment.Run(spec, acedo.SchemeBBV, opt)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.BBV.Predictor.Accuracy()
		cov = r.BBV.Coverage
	}
	b.ReportMetric(100*acc, "predictor-accuracy-%")
	b.ReportMetric(100*cov, "bbv-coverage-%")
}

// BenchmarkWarmStart measures a run that replays a previous run's
// exported DO database instead of tuning: compress's trace is recorded
// and its tuned run exported outside the timer, then each iteration
// replays the trace warm-started from that database.
func BenchmarkWarmStart(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("compress")
	spec = spec.WithMainLoops(benchLoops)
	opt := acedo.DefaultOptions()
	tr := recordedTrace(b, spec, opt)
	cold, err := experiment.ReplayScheme(spec, acedo.SchemeHotspot, opt, tr)
	if err != nil {
		b.Fatal(err)
	}
	opt.Core.WarmStart = cold.Hotspot.Database()

	b.ResetTimer()
	var warmStarts int
	for i := 0; i < b.N; i++ {
		r, err := experiment.ReplayScheme(spec, acedo.SchemeHotspot, opt, tr)
		if err != nil {
			b.Fatal(err)
		}
		warmStarts = r.Hotspot.WarmStarts
	}
	b.ReportMetric(float64(warmStarts), "warm-started-hotspots")
}

// BenchmarkSuite runs the full (shortened) 7×3 suite comparison — the
// end-to-end path behind `acetables -json` — with no telemetry sink
// attached, so it doubles as the zero-overhead regression bench for
// the instrumented hot paths.
func BenchmarkSuite(b *testing.B) {
	opt := acedo.DefaultOptions()
	for i := 0; i < b.N; i++ {
		for _, s := range shrunkSuite() {
			if _, err := acedo.CompareSchemes(s, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplay measures summarized trace-replay throughput: the
// baseline trace is recorded once outside the timer, then each
// iteration replays it into a fresh machine through the
// summarized-block engine (the per-scheme cost of record-once /
// replay-many).
func BenchmarkReplay(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("jess")
	spec = spec.WithMainLoops(benchLoops)
	opt := acedo.DefaultOptions()
	res, tr, err := experiment.RecordedBaseline(spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	if tr == nil {
		b.Fatal("baseline recording not retained")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ReplayScheme(spec, acedo.SchemeBaseline, opt, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Instr)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkReplayBBV measures a listener replay: the jess trace
// recorded once outside the timer, then replayed under the BBV scheme,
// whose block listener folds every run that ends below its next
// interval bound.
func BenchmarkReplayBBV(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("jess")
	spec = spec.WithMainLoops(benchLoops)
	opt := acedo.DefaultOptions()
	tr := recordedTrace(b, spec, opt)
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.ReplayScheme(spec, acedo.SchemeBBV, opt, tr)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instr
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkReplayThreeCU measures the replay a configuration search
// evaluates per candidate: jess recorded once outside the timer, then
// replayed under the hotspot scheme with the issue-queue unit enabled,
// so every retire batch also charges IQ energy.
func BenchmarkReplayThreeCU(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("jess")
	spec = spec.WithMainLoops(benchLoops)
	opt := acedo.DefaultOptions().WithThreeCU()
	tr := recordedTrace(b, spec, opt)
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.ReplayScheme(spec, acedo.SchemeHotspot, opt, tr)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instr
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkReplayAssoc measures the hotspot replay a configuration
// search pays per candidate on the batched data kernel's general probe
// path: jess recorded once per geometry outside the timer, then
// replayed with a direct-mapped and an 8-way L1D (both 2-way L1s take
// the specialised probe) over a 16-way L2 — associativities from
// optimize.DefaultSpace.
func BenchmarkReplayAssoc(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("jess")
	spec = spec.WithMainLoops(benchLoops)
	for _, l1dWays := range []int{1, 8} {
		b.Run(fmt.Sprintf("L1D%dway", l1dWays), func(b *testing.B) {
			opt := acedo.DefaultOptions()
			opt.Machine.L1DWays, opt.Machine.L2Ways = l1dWays, 16
			tr := recordedTrace(b, spec, opt)
			var instr uint64
			for i := 0; i < b.N; i++ {
				r, err := experiment.ReplayScheme(spec, acedo.SchemeHotspot, opt, tr)
				if err != nil {
					b.Fatal(err)
				}
				instr += r.Instr
			}
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkEngine measures raw interpreter throughput in simulated
// instructions per second.
func BenchmarkEngine(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("compress")
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var simulated uint64
	for i := 0; i < b.N; i++ {
		mach, err := machine.New(machine.PaperConfig(10))
		if err != nil {
			b.Fatal(err)
		}
		aos := vm.NewAOS(vm.DefaultParams(), mach, prog)
		eng, err := vm.NewEngine(prog, mach, aos)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(2_000_000); err != nil && err != vm.ErrBudget {
			b.Fatal(err)
		}
		simulated += mach.Instructions()
	}
	b.ReportMetric(float64(simulated)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkRecordSummary is BenchmarkEngine with the recorder
// installed: the record-once overhead of building the packed
// summarized op stream straight from the engine's events. Next to
// Minstr/s it reports trace-bytes/instr (the sealed trace's MemBytes
// per simulated instruction), a host-independent measure of the
// trace format's size.
func BenchmarkRecordSummary(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("compress")
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var simulated, traceBytes uint64
	for i := 0; i < b.N; i++ {
		mach, err := machine.New(machine.PaperConfig(10))
		if err != nil {
			b.Fatal(err)
		}
		aos := vm.NewAOS(vm.DefaultParams(), mach, prog)
		eng, err := vm.NewEngine(prog, mach, aos)
		if err != nil {
			b.Fatal(err)
		}
		rec := rtrace.NewSummaryRecorder(prog, 0)
		if err := eng.SetRecorder(rec); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(2_000_000); err != nil && err != vm.ErrBudget {
			b.Fatal(err)
		}
		tr, err := rec.Finish(eng.Halted())
		if err != nil {
			b.Fatal(err)
		}
		simulated += mach.Instructions()
		traceBytes += uint64(tr.MemBytes())
	}
	b.ReportMetric(float64(simulated)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	b.ReportMetric(float64(traceBytes)/float64(simulated), "trace-bytes/instr")
}

// BenchmarkWorkloadGen measures suite program generation.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range workload.Suite() {
			if _, err := s.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnalyzer measures the static footprint analysis.
func BenchmarkAnalyzer(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("javac")
	prog := spec.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acedo.NewAnalyzer(prog)
	}
}

// BenchmarkExtensionWSS runs the working-set-signature comparator — the
// other temporal detector of the paper's Section 2.2 survey.
func BenchmarkExtensionWSS(b *testing.B) {
	spec, _ := acedo.BenchmarkByName("mpeg")
	spec = spec.WithMainLoops(benchLoops)
	var stable, cov float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(spec, experiment.SchemeWSS, acedo.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		stable, cov = r.BBV.StablePct, r.BBV.Coverage
	}
	b.ReportMetric(100*stable, "wss-stable-%")
	b.ReportMetric(100*cov, "wss-coverage-%")
}
