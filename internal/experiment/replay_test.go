package experiment

import (
	"strings"
	"testing"

	"acedo/internal/fault"
	"acedo/internal/telemetry"
	"acedo/internal/workload"
)

// compareBoth runs Compare once with the replay fast path and once
// with NoReplay (the direct-execution control) from a cold trace
// cache, returning both.
func compareBoth(t *testing.T, spec workload.Spec, opt Options) (replayed, direct *Comparison) {
	t.Helper()
	resetTraceCache()
	replayed, err := Compare(spec, opt)
	if err != nil {
		t.Fatalf("replay Compare: %v", err)
	}
	dopt := opt
	dopt.NoReplay = true
	direct, err = Compare(spec, dopt)
	if err != nil {
		t.Fatalf("direct Compare: %v", err)
	}
	return replayed, direct
}

func checkSameRuns(t *testing.T, replayed, direct *Comparison) {
	t.Helper()
	pairs := []struct {
		name string
		r, d *Result
	}{
		{"baseline", replayed.Base, direct.Base},
		{"bbv", replayed.BBVRun, direct.BBVRun},
		{"hotspot", replayed.HotRun, direct.HotRun},
	}
	for _, p := range pairs {
		if !sameSim(p.r, p.d) {
			t.Errorf("%s: replayed run differs from direct:\nreplay = %+v\ndirect = %+v",
				p.name, p.r, p.d)
		}
	}
}

// TestReplayMatchesDirectComplete: on a run-to-completion benchmark
// every scheme — including the overhead-charging hotspot framework —
// replays from the baseline's trace bit-identically to direct
// execution.
func TestReplayMatchesDirectComplete(t *testing.T) {
	spec := shortSpec(t, "jess")
	opt := DefaultOptions()
	replayed, direct := compareBoth(t, spec, opt)
	checkSameRuns(t, replayed, direct)

	if got := replayed.Base.Disposition; got != RunRecorded {
		t.Errorf("baseline disposition = %q, want %q", got, RunRecorded)
	}
	for _, r := range []*Result{replayed.BBVRun, replayed.HotRun} {
		if r.Disposition != RunReplayed {
			t.Errorf("%s disposition = %q, want %q", r.Scheme, r.Disposition, RunReplayed)
		}
	}
	for _, r := range []*Result{direct.Base, direct.BBVRun, direct.HotRun} {
		if r.Disposition != RunDirect {
			t.Errorf("NoReplay %s disposition = %q, want %q", r.Scheme, r.Disposition, RunDirect)
		}
	}
}

// TestReplayMatchesDirectTruncated: with an instruction budget the
// trace is truncated. The budget counts the hotspot scheme's
// instrumentation overhead, so its direct run stops earlier in
// program terms than the recorded stream — replay must detect the
// divergence and fall back to direct execution, while the
// overhead-free schemes still replay. Results match direct execution
// either way.
func TestReplayMatchesDirectTruncated(t *testing.T) {
	spec := shortSpec(t, "jess")
	opt := DefaultOptions()
	opt.MaxInstr = 2_000_000
	replayed, direct := compareBoth(t, spec, opt)
	checkSameRuns(t, replayed, direct)

	if got := replayed.BBVRun.Disposition; got != RunReplayed {
		t.Errorf("bbv disposition = %q, want %q", got, RunReplayed)
	}
	if got := replayed.HotRun.Disposition; got != RunFallback {
		t.Errorf("hotspot disposition = %q, want %q", got, RunFallback)
	}
}

// TestTruncatedOverheadRecordingNotCached: the trace cache key ignores
// the scheme. A budget-stopped hotspot run counts its instrumentation
// overhead against the budget, but a recorder never sees that
// overhead, so its stream would stop early in program terms. Under a
// budget, RunSchemes therefore records with the list's first
// overhead-free scheme: with [hotspot, baseline] the baseline run
// records and is cached, the hotspot replay diverges and falls back,
// and both, as well as a later Compare's baseline, must equal direct
// execution.
func TestTruncatedOverheadRecordingNotCached(t *testing.T) {
	spec, ok := workload.ByName("jess")
	if !ok {
		t.Fatal("no jess benchmark")
	}
	opt := DefaultOptions()
	opt.MaxInstr = 3_000_000
	resetTraceCache()
	defer resetTraceCache()

	rs, err := RunSchemes(spec, opt, []Scheme{SchemeHotspot, SchemeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].AOS.OverheadInstr == 0 {
		t.Fatal("hotspot run charged no overhead; test is vacuous")
	}
	hot, err := Run(spec, SchemeHotspot, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSim(rs[0], hot) || rs[0].Disposition != RunFallback {
		t.Errorf("hotspot (%s): %d instr %d cycles, direct %d instr %d cycles",
			rs[0].Disposition, rs[0].Instr, rs[0].Cycles, hot.Instr, hot.Cycles)
	}
	direct, err := Run(spec, SchemeBaseline, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSim(rs[1], direct) {
		t.Errorf("baseline after a hotspot run: %d instr %d cycles, direct %d instr %d cycles",
			rs[1].Instr, rs[1].Cycles, direct.Instr, direct.Cycles)
	}
	if st := CurrentTraceCacheStats(); st.Entries != 1 || rs[1].Disposition != RunRecorded {
		t.Errorf("trace cache holds %d traces, baseline run %s; want 1, recorded by the baseline run",
			st.Entries, rs[1].Disposition)
	}
	cmp, err := Compare(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSim(cmp.Base, direct) {
		t.Errorf("later Compare baseline: %d instr %d cycles, direct %d instr %d cycles",
			cmp.Base.Instr, cmp.Base.Cycles, direct.Instr, direct.Cycles)
	}
}

// TestReplayDetectorsMatchDirect: CompareDetectors shares Compare's
// trace cache, so after a Compare of the same benchmark all four of
// its schemes replay — and match direct execution.
func TestReplayDetectorsMatchDirect(t *testing.T) {
	spec := shortSpec(t, "db")
	opt := DefaultOptions()
	resetTraceCache()
	if _, err := Compare(spec, opt); err != nil {
		t.Fatal(err)
	}
	replayed, err := CompareDetectors(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	dopt := opt
	dopt.NoReplay = true
	direct, err := CompareDetectors(spec, dopt)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		r, d *Result
	}{
		{"baseline", replayed.Base, direct.Base},
		{"bbv", replayed.BBVRun, direct.BBVRun},
		{"wss", replayed.WSSRun, direct.WSSRun},
		{"hotspot", replayed.HotRun, direct.HotRun},
	}
	for _, p := range pairs {
		if !sameSim(p.r, p.d) {
			t.Errorf("%s: replayed run differs from direct", p.name)
		}
		if p.r.Disposition != RunReplayed {
			t.Errorf("%s disposition = %q, want %q (cache warm)", p.name, p.r.Disposition, RunReplayed)
		}
	}
}

// TestReplayUnderFaultPlans: fault plans perturb sampling, phase
// signatures, and unit requests — but never the architectural stream.
// Replay under an armed plan must equal direct execution under the
// same plan (or cleanly fall back; never silently diverge).
func TestReplayUnderFaultPlans(t *testing.T) {
	plans := map[string]*fault.Plan{
		"sample-drop": {Seed: 7, Rules: []fault.Rule{
			{Point: fault.PointTimerSample, Kind: fault.KindDrop, Prob: 0.25},
		}},
		"sample-duplicate": {Seed: 11, Rules: []fault.Rule{
			{Point: fault.PointTimerSample, Kind: fault.KindDuplicate, Prob: 0.25},
		}},
		"bbv-bitflip": {Seed: 13, Rules: []fault.Rule{
			{Point: fault.PointBBVSignature, Kind: fault.KindBitFlip, Every: 3},
		}},
		"mixed": {Seed: 17, Rules: []fault.Rule{
			{Point: fault.PointUnitRequest, Kind: fault.KindReject, Prob: 0.3},
			{Point: fault.PointTimerSample, Kind: fault.KindDrop, Prob: 0.2},
			{Point: fault.PointBBVSignature, Kind: fault.KindBitFlip, Every: 5},
		}},
	}
	spec := shortSpec(t, "jess")
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Faults = plan
			replayed, direct := compareBoth(t, spec, opt)
			checkSameRuns(t, replayed, direct)
			for _, r := range []*Result{replayed.BBVRun, replayed.HotRun} {
				if r.Disposition != RunReplayed && r.Disposition != RunFallback {
					t.Errorf("%s disposition = %q, want replayed or fallback", r.Scheme, r.Disposition)
				}
			}
		})
	}
}

// TestReplayEmitsDispositionTelemetry: with a sink installed the
// record/replay fast path reports each run's disposition as a typed
// telemetry event carrying the trace's dimensions.
func TestReplayEmitsDispositionTelemetry(t *testing.T) {
	spec := shortSpec(t, "jess")
	opt := DefaultOptions()
	var buf telemetry.Buffer
	opt.Sink = &buf
	resetTraceCache()
	if _, err := Compare(spec, opt); err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, e := range buf.Events() {
		if e.Type != telemetry.TypeReplay {
			continue
		}
		events++
		if err := e.Validate(); err != nil {
			t.Errorf("invalid replay event: %v", err)
		}
		if e.Replay.TraceEvents == 0 || e.Replay.TraceBytes == 0 {
			t.Errorf("replay event missing trace dimensions: %+v", e.Replay)
		}
		switch e.Replay.Disposition {
		case RunRecorded, RunReplayed, RunFallback:
		default:
			t.Errorf("unexpected disposition %q", e.Replay.Disposition)
		}
	}
	if events != 3 {
		t.Errorf("replay events = %d, want 3 (recorded + 2 replays)", events)
	}
}

// TestRunSuiteProgressShowsDispositions: suite progress lines stay one
// line per benchmark but carry each run's wall time and disposition.
func TestRunSuiteProgressShowsDispositions(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	var log strings.Builder
	opt := DefaultOptions()
	opt.MaxInstr = 500_000
	opt.Log = &log
	resetTraceCache()
	if _, err := RunSuite(opt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(log.String(), "\n"), "\n")
	if want := len(workload.Suite()); len(lines) != want {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), want, log.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, RunRecorded) && !strings.Contains(line, RunDirect) {
			t.Errorf("progress line missing disposition: %q", line)
		}
		if !strings.Contains(line, "replayed") && !strings.Contains(line, "fallback") &&
			!strings.Contains(line, "direct") {
			t.Errorf("progress line missing scheme dispositions: %q", line)
		}
	}
}

// TestReplayFaultMatrix is the replay differential matrix: for each
// workload × fault-plan cell, the summarized replay must produce the
// same result as direct execution (NoReplay) for every scheme. Fault
// plans perturb sampling, signatures, and unit requests — the
// adaptation machinery the replay engine must reproduce
// event-for-event around its bulk fast paths.
func TestReplayFaultMatrix(t *testing.T) {
	plans := map[string]*fault.Plan{
		"nofault": nil,
		"mixed": {Seed: 17, Rules: []fault.Rule{
			{Point: fault.PointUnitRequest, Kind: fault.KindReject, Prob: 0.3},
			{Point: fault.PointTimerSample, Kind: fault.KindDrop, Prob: 0.2},
			{Point: fault.PointBBVSignature, Kind: fault.KindBitFlip, Every: 5},
		}},
	}
	for _, bench := range []string{"jess", "db"} {
		for name, plan := range plans {
			t.Run(bench+"/"+name, func(t *testing.T) {
				opt := DefaultOptions()
				opt.Faults = plan
				replayed, direct := compareBoth(t, shortSpec(t, bench), opt)
				checkSameRuns(t, replayed, direct)
			})
		}
	}
}
