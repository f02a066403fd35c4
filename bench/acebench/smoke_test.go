package main

import (
	"math"
	"testing"
	"time"
)

// TestSmoke runs every workload's child, and the probe battery, in
// process at smoke-test size (one shortened benchmark, a 4-candidate
// search, 20 service operations) and requires every oracle to pass:
// replayed suite passes byte-identical to direct execution, the best
// candidate reproduced by direct re-execution, cached and forwarded
// results byte-identical to their cold originals, and no_replay
// resubmissions identical to replayed ones.
func TestSmoke(t *testing.T) {
	var runs []*childRun
	for _, w := range []string{"suite", "optimize", "service"} {
		env := &childEnv{
			cfg:   childConfig{Workload: w, Seed: 7, Dir: t.TempDir(), Tiny: true, Trace: true},
			tr:    newTracer(len(runs)),
			ready: func() {},
		}
		res, err := childFuncs[w](env)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		res.finish(env)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", w, res.Failed, res.Attempted, res.Failures)
		}
		if len(res.Cold) == 0 || res.Done == 0 || res.DoneWall <= 0 {
			t.Errorf("%s: no cold samples or no completed work: %+v", w, res)
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: traced child recorded no spans", w)
		}
		switch w {
		case "suite":
			// A recording cold pass, a warm-up and the timed warm
			// comparisons, all checked.
			if len(res.Warm) != tinyWarmOps || res.Recorded == 0 || res.Attempted != tinyWarmOps+2 {
				t.Errorf("suite: %d warm, %d recorded, %d attempted; want %d, some, %d",
					len(res.Warm), res.Recorded, res.Attempted, tinyWarmOps, tinyWarmOps+2)
			}
		case "service":
			// 20 operations cycling cold, cached, forwarded, then the
			// no_replay checks of 4 of the 7 cold jobs.
			if len(res.Cold) != 7 || len(res.Warm) != 13 || res.Attempted != 20+noReplayChecks {
				t.Errorf("service: %d cold, %d warm, %d attempted; want 7, 13, %d",
					len(res.Cold), len(res.Warm), res.Attempted, 20+noReplayChecks)
			}
		}
		runs = append(runs, &childRun{res: res, setup: time.Millisecond, rssMB: 1, cpuS: 1})
	}

	env := &childEnv{cfg: childConfig{Workload: "probe", Dir: t.TempDir(), Tiny: true}, ready: func() {}}
	probe, err := probeChild(env)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	layer, err := layerMetrics(runs, probe.Layer)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range layer {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s = %v", name, m.Value)
		}
	}
}

func TestReduceEmitsEveryEndToEndMetric(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 1, spec: &benchSpec{EndToEnd: []metricDecl{{Name: "warm_ms", Bound: 0.1}}}}
	child := func(warm ...float64) *childRun {
		return &childRun{setup: time.Millisecond, rssMB: 100,
			res: &childResult{Cold: []float64{5}, Warm: warm, Done: 4, DoneWall: 2, Attempted: 4}}
	}
	setups := []float64{1, 1, 1, 1, 1}
	rec, err := reduce("service", []*childRun{child(1, 1, 1, 1), child(1, 1, 2, 2)}, setups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		v, ok := rec.Metrics[m.name]
		if !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
	if rec.Metrics["ops_per_s"].Value != 2 || !rec.Correct || rec.Attempted != 8 {
		t.Errorf("ops_per_s %v, correct %v, attempted %d; want 2, true, 8",
			rec.Metrics["ops_per_s"].Value, rec.Correct, rec.Attempted)
	}
	if len(rec.Drift) != 1 || rec.Drift[0] != "warm_ms" {
		t.Errorf("drift %v, want [warm_ms] (second child's second half doubled)", rec.Drift)
	}
	if _, err := reduce("service", []*childRun{child()}, setups, cfg); err == nil {
		t.Error("reduce accepted a run with no warm samples")
	}
}
