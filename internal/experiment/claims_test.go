package experiment

import (
	"testing"

	"acedo/internal/core"
	"acedo/internal/workload"
)

// The ablation claims of EXPERIMENTS.md ("Ablations" and "A5"), driven
// through the run pipeline at full benchmark length: each subtest is
// named after its EXPERIMENTS heading and asserts the numbers printed
// there, at the precision printed.

// runOne runs one scheme through RunSchemes, which replays the
// benchmark's cached trace once one is recorded.
func runOne(t *testing.T, spec workload.Spec, scheme Scheme, opt Options) *Result {
	t.Helper()
	rs, err := RunSchemes(spec, opt, []Scheme{scheme})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// checkReplayedMatchesDirect asserts that r came from a trace replay
// and equals a direct run under the same options.
func checkReplayedMatchesDirect(t *testing.T, r *Result, spec workload.Spec, opt Options) {
	t.Helper()
	if r.Disposition != RunReplayed {
		t.Errorf("%s/%s disposition = %s, want %s", spec.Name, r.Scheme, r.Disposition, RunReplayed)
	}
	direct, err := Run(spec, r.Scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSim(r, direct) {
		t.Errorf("%s/%s: replayed run differs from direct:\nreplay = %+v\ndirect = %+v",
			spec.Name, r.Scheme, r, direct)
	}
}

func tunings(r *Result) uint64 { return r.Hotspot.L1D.Tunings + r.Hotspot.L2.Tunings }

func hintedOptions(t *testing.T, spec workload.Spec, opt Options) Options {
	t.Helper()
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt.Core.StaticHint = core.NewAnalyzer(prog).HintFor(opt.Machine)
	return opt
}

func TestAblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-length jess and compress; skipped in -short mode")
	}
	compress, _ := workload.ByName("compress")

	t.Run("A1, CU decoupling vs monolithic", func(t *testing.T) {
		jess, _ := workload.ByName("jess")
		opt := DefaultOptions()
		rs, err := RunSchemes(jess, opt, []Scheme{SchemeBaseline, SchemeHotspot})
		if err != nil {
			t.Fatal(err)
		}
		base, dec := rs[0], rs[1]
		mopt := opt
		mopt.Core.Mode = core.ModeMonolithic
		mono := runOne(t, jess, SchemeHotspot, mopt)
		if got := pct(dec.Hotspot.TunedPct); got != "80.0%" {
			t.Errorf("decoupled tunes %s of hotspots, want 80.0%%", got)
		}
		if got := pct(mono.Hotspot.TunedPct); got != "0.0%" {
			t.Errorf("monolithic tunes %s of hotspots, want 0.0%%", got)
		}
		if got := tunings(dec); got != 36 {
			t.Errorf("decoupled takes %d measurements, want 36", got)
		}
		if d, m := pct(saving(base.L1DEnergyNJ, dec.L1DEnergyNJ)), pct(saving(base.L1DEnergyNJ, mono.L1DEnergyNJ)); d != "62.4%" || m != "8.8%" {
			t.Errorf("L1D saving decoupled %s, monolithic %s; want 62.4%%, 8.8%%", d, m)
		}
	})

	t.Run("A2, static configuration hints", func(t *testing.T) {
		opt := DefaultOptions()
		rs, err := RunSchemes(compress, opt, []Scheme{SchemeBaseline, SchemeHotspot})
		if err != nil {
			t.Fatal(err)
		}
		base, tuned := rs[0], rs[1]
		hopt := hintedOptions(t, compress, opt)
		hinted := runOne(t, compress, SchemeHotspot, hopt)
		if h, tu := pct(saving(base.L1DEnergyNJ, hinted.L1DEnergyNJ)), pct(saving(base.L1DEnergyNJ, tuned.L1DEnergyNJ)); h != "63.2%" || tu != "61.9%" {
			t.Errorf("L1D saving hinted %s vs tuned %s, want 63.2%% vs 61.9%%", h, tu)
		}
		if h, tu := pct(saving(base.L2EnergyNJ, hinted.L2EnergyNJ)), pct(saving(base.L2EnergyNJ, tuned.L2EnergyNJ)); h != "45.6%" || tu != "67.0%" {
			t.Errorf("L2 saving hinted %s vs tuned %s, want 45.6%% vs 67.0%%", h, tu)
		}
		if tu, h := tunings(tuned), tunings(hinted); tu != 24 || h != 0 {
			t.Errorf("tunings %d -> %d, want 24 -> 0", tu, h)
		}
		checkReplayedMatchesDirect(t, hinted, compress, hopt)
	})

	t.Run("A2, static configuration hints with three CUs", func(t *testing.T) {
		// The hint sizes caches only: micro (issue-queue) hotspots
		// still take the descent. On jess a hint that answered for
		// them would leave no micro tuning at all.
		jess, _ := workload.ByName("jess")
		opt := hintedOptions(t, jess, DefaultOptions().WithThreeCU())
		hinted := runOne(t, jess, SchemeHotspot, opt)
		micro := hinted.Hotspot.Micro
		if micro.Hotspots == 0 || micro.Tunings == 0 {
			t.Errorf("micro hotspots %d, tunings %d under hints; want both > 0", micro.Hotspots, micro.Tunings)
		}
	})

	t.Run("A5 — DO-database warm start", func(t *testing.T) {
		opt := DefaultOptions()
		cold := runOne(t, compress, SchemeHotspot, opt)
		db := cold.Hotspot.Database()
		blob, err := db.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Core.WarmStart, err = core.ParseDatabase(blob); err != nil {
			t.Fatal(err)
		}
		warm := runOne(t, compress, SchemeHotspot, opt)
		if c, w := tunings(cold), tunings(warm); c != 24 || w != 0 {
			t.Errorf("tunings %d -> %d, want 24 -> 0", c, w)
		}
		rep := warm.Hotspot
		if n := rep.L1D.Hotspots + rep.L2.Hotspots; rep.WarmStarts != 6 || n != 6 {
			t.Errorf("%d of %d hotspots warm-started, want 6 of 6", rep.WarmStarts, n)
		}
		checkReplayedMatchesDirect(t, warm, compress, opt)
	})
}
