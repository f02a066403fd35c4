package main

import (
	"fmt"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/optimize"
	"acedo/internal/workload"
)

// searchBenchmarks are the optimize workload's programs: child i of a
// run searches searchBenchmarks[i % 2], so one repetition is one search
// of each.
var searchBenchmarks = []string{"jess", "javac"}

// searchBudget is the GA's distinct-candidate budget per search.
const searchBudget = 96

// optimizeChild runs one configuration search the way an optimize job
// does: record the baseline trace (the cold operation), then drive the
// seeded GA, whose every candidate is a hotspot-scheme replay of that
// trace. After the search the child also records the other search
// benchmark's baseline, so a run has four cold samples rather than two,
// while the search itself runs beside its own trace only. A warm
// sample is one full generation's wall time per candidate evaluated,
// so it measures replay-bound evaluation with the GA's own batching and
// goroutines.
func optimizeChild(env *childEnv) (*childResult, error) {
	var specs []workload.Spec
	for _, name := range searchBenchmarks {
		w, _ := workload.ByName(name)
		specs = append(specs, w)
	}
	w := specs[env.cfg.Index%len(specs)]
	budget := searchBudget
	if env.cfg.Tiny {
		w, budget = tinySpec(), 4
		specs = []workload.Spec{w}
	}
	opt := experiment.DefaultOptions()
	space := optimize.DefaultSpace()
	seed := env.cfg.Seed + int64(env.cfg.Index/len(searchBenchmarks))
	spec, err := optimize.Spec{Budget: budget, Seed: seed}.Normalize()
	if err != nil {
		return nil, err
	}
	env.ready()

	res := &childResult{}
	record := func(s workload.Spec) error {
		trace, endOp := env.tr.begin(0, 0, "acebench", "optimize.record")
		_, endRec := env.tr.begin(trace, trace, "experiment", "experiment.RecordedBaseline")
		start := time.Now()
		base, _, err := experiment.RecordedBaseline(s, opt)
		res.Cold = append(res.Cold, millis(time.Since(start)))
		endRec()
		endOp()
		if err != nil {
			return fmt.Errorf("optimize %s: record baseline: %w", s.Name, err)
		}
		if base.Disposition == experiment.RunRecorded {
			res.Recorded++
		}
		return nil
	}
	if err := record(w); err != nil {
		return nil, err
	}

	trace, endOp := env.tr.begin(0, 0, "acebench", "optimize.search")
	searchID, endSearch := env.tr.begin(trace, trace, "optimize", "optimize.RunBench")
	last, lastEvaluated := time.Now(), 0
	progress := func(gen, evaluated int, _ optimize.Eval, _ bool) {
		now := time.Now()
		// Generation 0's interval also holds the baseline and ACE
		// reference replays, and the last generation may be a partial
		// batch, so only full later generations are samples.
		if n := evaluated - lastEvaluated; gen > 0 && n >= spec.Population/2 {
			res.Warm = append(res.Warm, millis(now.Sub(last))/float64(n))
		}
		env.tr.record(trace, searchID, "optimize", "optimize.generation", last, now)
		last, lastEvaluated = now, evaluated
	}
	br, st, err := optimize.RunBench(w, opt, space, spec, progress)
	endSearch()
	endOp()
	if err != nil {
		return nil, fmt.Errorf("optimize %s: search: %w", w.Name, err)
	}
	res.Done += float64(br.Evaluated)
	res.DoneWall += st.SearchWall.Seconds()
	res.Attempted += br.Evaluated
	for _, s := range specs {
		if s.Name != w.Name {
			if err := record(s); err != nil {
				return nil, err
			}
		}
	}

	// Oracle: the best candidate, re-executed directly (no trace), must
	// reproduce the replayed evaluation exactly.
	trace, endOp = env.tr.begin(0, 0, "acebench", "optimize.check")
	defer endOp()
	o, err := space.Apply(opt, br.Best.Config)
	if err != nil {
		return nil, fmt.Errorf("optimize %s: apply best: %w", w.Name, err)
	}
	_, endRun := env.tr.begin(trace, trace, "experiment", "experiment.Run")
	r, err := experiment.Run(w, experiment.SchemeHotspot, o)
	endRun()
	if err != nil {
		return nil, fmt.Errorf("optimize %s: direct re-run: %w", w.Name, err)
	}
	energy := r.L1DEnergyNJ + r.L2EnergyNJ + r.IQEnergyNJ
	if r.Instr != br.Best.Instr || r.Cycles != br.Best.Cycles || energy != br.Best.EnergyNJ {
		res.fail("optimize %s: best %v replayed instr=%d cycles=%d energy=%v, direct %d/%d/%v",
			w.Name, br.Best.Config, br.Best.Instr, br.Best.Cycles, br.Best.EnergyNJ, r.Instr, r.Cycles, energy)
	}
	return res, nil
}
