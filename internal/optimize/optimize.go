package optimize

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/rtrace"
	"acedo/internal/workload"
)

// Objectives (Spec.Objective).
const (
	// ObjectiveEDP minimises the energy-delay product: configurable-
	// unit energy (nJ) × cycles.
	ObjectiveEDP = "edp"
	// ObjectiveEnergy minimises configurable-unit energy alone (the
	// slowdown constraint still bounds the delay side).
	ObjectiveEnergy = "energy"
)

// Spec is the wire-format search parameterisation carried inside a job
// spec (server.JobSpec.Optimize). The zero value normalises to the
// standard search: a seeded genetic algorithm minimising EDP over 1000
// distinct candidates under a 5% slowdown constraint.
type Spec struct {
	// Strategy selects the metaheuristic: "ga" (genetic algorithm,
	// the default) or "sa" (simulated annealing with restart).
	Strategy string `json:"strategy,omitempty"`
	// Objective selects what to minimise: "edp" (default) or
	// "energy".
	Objective string `json:"objective,omitempty"`
	// Budget is the number of distinct candidate configurations to
	// evaluate (memoized re-visits are free); 0 normalises to 1000.
	// The effective budget is capped at the space size.
	Budget int `json:"budget,omitempty"`
	// Seed seeds the search's random stream; equal seeds reproduce
	// the search decision-for-decision. 0 normalises to 1.
	Seed int64 `json:"seed,omitempty"`
	// MaxSlowdown is the feasibility constraint: a candidate whose
	// cycles exceed the recorded baseline's by more than this
	// fraction ranks strictly below every feasible candidate. 0
	// normalises to 0.05.
	MaxSlowdown float64 `json:"max_slowdown,omitempty"`

	// Population is the GA population size (and the SA epoch length);
	// 0 normalises to 32.
	Population int `json:"population,omitempty"`
	// Elite is the number of best parents the GA carries over
	// unchanged each generation; 0 normalises to 4.
	Elite int `json:"elite,omitempty"`
	// MutationRate is the GA's per-gene mutation probability; 0
	// normalises to 0.15.
	MutationRate float64 `json:"mutation_rate,omitempty"`
	// Tournament is the GA's selection tournament size; 0 normalises
	// to 3.
	Tournament int `json:"tournament,omitempty"`

	// InitialTemp is the SA start temperature on the relative-delta
	// scale; 0 normalises to 0.08.
	InitialTemp float64 `json:"initial_temp,omitempty"`
	// Cooling is the SA geometric cooling factor per epoch; 0
	// normalises to 0.92.
	Cooling float64 `json:"cooling,omitempty"`
	// RestartAfter restarts the SA walk from a fresh random point
	// (at full temperature) after this many consecutive epochs
	// without improving the best; 0 normalises to 12.
	RestartAfter int `json:"restart_after,omitempty"`

	// EarlyStop, when positive, ends the search after this many
	// consecutive generations (GA) or epochs (SA) without improving
	// the best candidate, even with budget remaining. 0 (the
	// default) disables early stopping, so the full budget is spent.
	EarlyStop int `json:"early_stop,omitempty"`
}

// Normalize fills defaults and validates, returning the canonical form
// every equivalent spec shares (the server's content-addressed cache
// hashes the canonical form).
func (s Spec) Normalize() (Spec, error) {
	if s.Strategy == "" {
		s.Strategy = "ga"
	}
	if s.Strategy != "ga" && s.Strategy != "sa" {
		return s, fmt.Errorf("optimize: unknown strategy %q (want ga or sa)", s.Strategy)
	}
	if s.Objective == "" {
		s.Objective = ObjectiveEDP
	}
	if s.Objective != ObjectiveEDP && s.Objective != ObjectiveEnergy {
		return s, fmt.Errorf("optimize: unknown objective %q (want edp or energy)", s.Objective)
	}
	if s.Budget == 0 {
		s.Budget = 1000
	}
	if s.Budget < 1 {
		return s, fmt.Errorf("optimize: budget %d must be positive", s.Budget)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxSlowdown == 0 {
		s.MaxSlowdown = 0.05
	}
	if s.MaxSlowdown < 0 {
		return s, fmt.Errorf("optimize: max_slowdown %v must be non-negative", s.MaxSlowdown)
	}
	if s.Population == 0 {
		s.Population = 32
	}
	if s.Population < 2 {
		return s, fmt.Errorf("optimize: population %d must be at least 2", s.Population)
	}
	if s.Elite == 0 {
		s.Elite = 4
	}
	if s.Elite < 0 || s.Elite >= s.Population {
		return s, fmt.Errorf("optimize: elite %d out of [0,population)", s.Elite)
	}
	if s.MutationRate == 0 {
		s.MutationRate = 0.15
	}
	if s.MutationRate < 0 || s.MutationRate > 1 {
		return s, fmt.Errorf("optimize: mutation_rate %v out of [0,1]", s.MutationRate)
	}
	if s.Tournament == 0 {
		s.Tournament = 3
	}
	if s.Tournament < 1 {
		return s, fmt.Errorf("optimize: tournament %d must be positive", s.Tournament)
	}
	if s.InitialTemp == 0 {
		s.InitialTemp = 0.08
	}
	if s.InitialTemp < 0 {
		return s, fmt.Errorf("optimize: initial_temp %v must be positive", s.InitialTemp)
	}
	if s.Cooling == 0 {
		s.Cooling = 0.92
	}
	if s.Cooling <= 0 || s.Cooling >= 1 {
		return s, fmt.Errorf("optimize: cooling %v out of (0,1)", s.Cooling)
	}
	if s.RestartAfter == 0 {
		s.RestartAfter = 12
	}
	if s.RestartAfter < 0 {
		return s, fmt.Errorf("optimize: restart_after %d must be non-negative", s.RestartAfter)
	}
	if s.EarlyStop < 0 {
		return s, fmt.Errorf("optimize: early_stop %d must be non-negative", s.EarlyStop)
	}
	return s, nil
}

// Eval is one evaluated candidate: its genome and the replay's
// objective-relevant measurements.
type Eval struct {
	Genome   []int
	Value    float64 // objective value (edp or energy)
	Feasible bool    // slowdown within the constraint
	Instr    uint64
	Cycles   uint64
	EnergyNJ float64
	EDP      float64
	Slowdown float64

	// fellBack marks an evaluation that could not replay and
	// re-executed directly (still bit-exact; counted in RunStats).
	fellBack bool
}

// better ranks candidates: feasible before infeasible, then by
// objective value, then (for full determinism under value ties) by
// genome lexicographic order.
func better(a, b *Eval) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	for i := range a.Genome {
		if a.Genome[i] != b.Genome[i] {
			return a.Genome[i] < b.Genome[i]
		}
	}
	return false
}

// score is the scalar the SA acceptance rule compares: the objective
// value, multiplied up for infeasible candidates in proportion to the
// constraint violation, so the walk is steered back toward the
// feasible region without a cliff.
func (e *Eval) score(maxSlowdown float64) float64 {
	if e.Feasible {
		return e.Value
	}
	return e.Value * (1 + 10*(e.Slowdown-maxSlowdown))
}

// Progress observes the search after every generation (GA) or epoch
// (SA): the generation counter, distinct candidates evaluated so far,
// the best candidate to date, and whether this step improved it.
type Progress func(generation, evaluated int, best Eval, improved bool)

// CandidateResult is one configuration's measured outcome in the
// result document. Config is the genome (dimension-order indices into
// the space; nil for the fixed reference configurations) and
// Description its human-readable rendering.
type CandidateResult struct {
	Config      []int   `json:"config,omitempty"`
	Description string  `json:"description"`
	Instr       uint64  `json:"instr"`
	Cycles      uint64  `json:"cycles"`
	EnergyNJ    float64 `json:"energy_nj"`
	EDP         float64 `json:"edp_nj_cycles"`
	Slowdown    float64 `json:"slowdown"`
	Feasible    bool    `json:"feasible"`
}

// BenchResult is one benchmark's search outcome: the best candidate
// found, the paper's ACE scheme at the default configuration as the
// reference point, and the full-size baseline. It contains no wall
// times or timestamps — two same-seed searches produce byte-identical
// documents.
type BenchResult struct {
	Benchmark   string `json:"benchmark"`
	Strategy    string `json:"strategy"`
	Objective   string `json:"objective"`
	SpaceSize   int    `json:"space_size"`
	Evaluated   int    `json:"evaluated"`
	Generations int    `json:"generations"`

	Best     CandidateResult `json:"best"`
	ACE      CandidateResult `json:"ace"`
	Baseline CandidateResult `json:"baseline"`

	// EDPSavingVsACE is the best candidate's fractional EDP reduction
	// versus the ACE reference (positive = the search beat the
	// paper's configuration).
	EDPSavingVsACE float64 `json:"edp_saving_vs_ace"`
	// EnergySavingVsACE is the corresponding energy reduction.
	EnergySavingVsACE float64 `json:"energy_saving_vs_ace"`
}

// RunStats is the non-deterministic side channel of one benchmark's
// search — wall times and dispositions for job metadata, kept out of
// the result document so same-seed documents stay byte-identical.
type RunStats struct {
	// Base and ACE are the reference runs (recorded baseline and
	// default-configuration hotspot replay).
	Base *experiment.Result
	ACE  *experiment.Result
	// SearchInstr totals the instructions simulated across all
	// candidate evaluations; SearchWall is the whole search's host
	// time; Fallbacks counts candidate evaluations that could not
	// replay and re-executed directly.
	SearchInstr uint64
	SearchWall  time.Duration
	Fallbacks   int
}

// RunBench searches the space for one benchmark: record the baseline
// once, replay the ACE reference, then drive the spec's strategy with
// every candidate evaluation a replay of the recorded stream. The spec
// must be normalised; the returned document is a pure function of
// (workload, base options, space, spec) — seeded and parallel-safe.
func RunBench(w workload.Spec, base experiment.Options, space Space, spec Spec, progress Progress) (*BenchResult, *RunStats, error) {
	if err := space.Validate(); err != nil {
		return nil, nil, err
	}
	w = base.AdjustWorkload(w)
	// Candidate replays run sink-free: a search is thousands of runs,
	// and its telemetry is the per-generation progress stream, not
	// the per-run event firehose.
	base.Sink = nil

	start := time.Now()
	baseRes, tr, err := experiment.RecordedBaseline(w, base)
	if err != nil {
		return nil, nil, err
	}
	aceRes, err := experiment.ReplayScheme(w, experiment.SchemeHotspot, base, tr)
	if err != nil {
		return nil, nil, err
	}

	ev := &evaluator{
		w: w, base: base, space: &space, tr: tr,
		baseCycles:  baseRes.Cycles,
		maxSlowdown: spec.MaxSlowdown,
		objective:   spec.Objective,
		target:      min(spec.Budget, space.Size()),
		par:         base.Parallelism,
		memo:        make(map[string]*Eval),
	}

	var best *Eval
	var gens int
	switch spec.Strategy {
	case "sa":
		best, gens, err = runSA(ev, spec, progress)
	default:
		best, gens, err = runGA(ev, spec, progress)
	}
	if err != nil {
		return nil, nil, err
	}
	if best == nil {
		return nil, nil, fmt.Errorf("optimize: %s search evaluated no candidates", spec.Strategy)
	}

	res := &BenchResult{
		Benchmark:   w.Name,
		Strategy:    spec.Strategy,
		Objective:   spec.Objective,
		SpaceSize:   space.Size(),
		Evaluated:   ev.evaluated,
		Generations: gens,
		Best:        ev.candidateResult(best),
		ACE:         referenceResult("paper default (hotspot)", aceRes, baseRes.Cycles, spec.MaxSlowdown),
		Baseline:    referenceResult("full-size baseline", baseRes, baseRes.Cycles, spec.MaxSlowdown),
	}
	if res.ACE.EDP > 0 {
		res.EDPSavingVsACE = (res.ACE.EDP - res.Best.EDP) / res.ACE.EDP
	}
	if res.ACE.EnergyNJ > 0 {
		res.EnergySavingVsACE = (res.ACE.EnergyNJ - res.Best.EnergyNJ) / res.ACE.EnergyNJ
	}
	stats := &RunStats{
		Base: baseRes, ACE: aceRes,
		SearchInstr: ev.instr,
		SearchWall:  time.Since(start),
		Fallbacks:   ev.fallbacks,
	}
	return res, stats, nil
}

// candidateResult renders an evaluated candidate for the document.
func (ev *evaluator) candidateResult(e *Eval) CandidateResult {
	return CandidateResult{
		Config:      e.Genome,
		Description: ev.space.Describe(e.Genome),
		Instr:       e.Instr,
		Cycles:      e.Cycles,
		EnergyNJ:    e.EnergyNJ,
		EDP:         e.EDP,
		Slowdown:    e.Slowdown,
		Feasible:    e.Feasible,
	}
}

// referenceResult renders a fixed reference run (baseline or default
// ACE) for the document.
func referenceResult(desc string, r *experiment.Result, baseCycles uint64, maxSlowdown float64) CandidateResult {
	energy := r.L1DEnergyNJ + r.L2EnergyNJ + r.IQEnergyNJ
	slow := 0.0
	if baseCycles > 0 {
		slow = float64(r.Cycles)/float64(baseCycles) - 1
	}
	return CandidateResult{
		Description: desc,
		Instr:       r.Instr,
		Cycles:      r.Cycles,
		EnergyNJ:    energy,
		EDP:         energy * float64(r.Cycles),
		Slowdown:    slow,
		Feasible:    slow <= maxSlowdown,
	}
}

// evaluator measures candidates: one replay of the recorded stream per
// distinct genome, memoized, with the distinct-evaluation count as the
// search budget. Batches evaluate in parallel (bounded by the base
// options' Parallelism) and are merged in index order, so results are
// independent of scheduling.
type evaluator struct {
	w           workload.Spec
	base        experiment.Options
	space       *Space
	tr          *rtrace.Trace
	baseCycles  uint64
	maxSlowdown float64
	objective   string
	target      int // distinct evaluations to perform
	par         int

	memo      map[string]*Eval
	evaluated int
	instr     uint64
	fallbacks int
}

// done reports whether the evaluation budget is exhausted.
func (ev *evaluator) done() bool { return ev.evaluated >= ev.target }

// remaining returns the unspent distinct-evaluation budget.
func (ev *evaluator) remaining() int { return ev.target - ev.evaluated }

// evalBatch evaluates a batch of genomes, returning one Eval per input
// in order. Genomes already memoized cost nothing; fresh genomes are
// evaluated in parallel, deduplicated within the batch, and truncated
// (in batch order) to the remaining budget — truncated entries return
// nil.
func (ev *evaluator) evalBatch(genomes [][]int) ([]*Eval, error) {
	out := make([]*Eval, len(genomes))
	type fresh struct {
		genome []int
		key    string
	}
	var work []fresh
	seen := make(map[string]bool)
	for _, g := range genomes {
		k := key(g)
		if ev.memo[k] != nil || seen[k] {
			continue
		}
		if len(work) >= ev.remaining() {
			break
		}
		seen[k] = true
		work = append(work, fresh{genome: g, key: k})
	}

	evals := make([]*Eval, len(work))
	errs := make([]error, len(work))
	par := ev.par
	if par <= 0 {
		par = 4
	}
	if par > len(work) {
		par = len(work)
	}
	if par > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					evals[i], errs[i] = ev.evalOneDirect(work[i].genome)
				}
			}()
		}
		for i := range work {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range work {
			evals[i], errs[i] = ev.evalOneDirect(work[i].genome)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		ev.memo[work[i].key] = evals[i]
		ev.evaluated++
		ev.instr += evals[i].Instr
		if ev.dispositionFallback(evals[i]) {
			ev.fallbacks++
		}
	}
	for i, g := range genomes {
		out[i] = ev.memo[key(g)]
	}
	return out, nil
}

// dispositionFallback reports whether an eval re-executed directly
// (recorded on the Eval during evalOneDirect via a sentinel Instr — see
// there; kept as a method for symmetry and future extension).
func (ev *evaluator) dispositionFallback(e *Eval) bool { return e.fellBack }

// evalOneDirect replays one candidate (no memoization, no budget
// accounting — evalBatch owns both).
func (ev *evaluator) evalOneDirect(g []int) (*Eval, error) {
	opt, err := ev.space.Apply(ev.base, g)
	if err != nil {
		return nil, err
	}
	r, err := experiment.ReplayScheme(ev.w, experiment.SchemeHotspot, opt, ev.tr)
	if err != nil {
		return nil, err
	}
	energy := r.L1DEnergyNJ + r.L2EnergyNJ + r.IQEnergyNJ
	edp := energy * float64(r.Cycles)
	slow := 0.0
	if ev.baseCycles > 0 {
		slow = float64(r.Cycles)/float64(ev.baseCycles) - 1
	}
	e := &Eval{
		Genome:   append([]int(nil), g...),
		Instr:    r.Instr,
		Cycles:   r.Cycles,
		EnergyNJ: energy,
		EDP:      edp,
		Slowdown: slow,
		Feasible: slow <= ev.maxSlowdown,
		fellBack: r.Disposition == experiment.RunFallback || r.Disposition == experiment.RunDirect,
	}
	if ev.objective == ObjectiveEnergy {
		e.Value = energy
	} else {
		e.Value = edp
	}
	return e, nil
}

// sortEvals orders candidates best-first under the deterministic
// ranking.
func sortEvals(evals []*Eval) {
	sort.SliceStable(evals, func(i, j int) bool { return better(evals[i], evals[j]) })
}
