package rtrace

import (
	"errors"
	"reflect"
	"testing"

	"acedo/internal/cache"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// recordedTrace runs a benchmark on a real engine with a recorder
// installed and returns the program and sealed trace. A zero budget
// runs to completion (complete trace); a non-zero budget yields a
// truncated trace, which replays in divergence-checking mode.
func recordedTrace(t *testing.T, bench string, budget uint64) (*program.Program, *Trace) {
	t.Helper()
	spec, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no %s benchmark", bench)
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	aos := vm.NewAOS(vm.DefaultParams(), mach, prog)
	eng, err := vm.NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	if err := eng.SetRecorder(rec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(budget); err != nil && err != vm.ErrBudget {
		t.Fatal(err)
	}
	tr, err := rec.Finish(eng.Halted())
	if err != nil {
		t.Fatal(err)
	}
	return prog, tr
}

// freshEnv builds a fresh machine + AOS pair around prog, identical
// across calls, for differential replays of the same trace.
func freshEnv(t *testing.T, prog *program.Program) Env {
	t.Helper()
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	return Env{Prog: prog, Mach: mach, AOS: vm.NewAOS(vm.DefaultParams(), mach, prog)}
}

// machineState flattens everything the machine model accumulates into
// a comparable value: the snapshot counters, both resizable caches'
// stats, and every set's full canonical content (tags, recency order,
// dirty bits, absolute last-use ticks).
func machineState(m *machine.Machine) map[string]any {
	dump := func(c *cache.Cache) [][]cache.LineView {
		sets := make([][]cache.LineView, c.NumSets())
		for s := range sets {
			sets[s] = c.ViewSet(uint64(s))
		}
		return sets
	}
	return map[string]any{
		"snapshot":  m.Snapshot(),
		"instr":     m.Instructions(),
		"l1d.stats": m.L1D.Stats(),
		"l2.stats":  m.L2.Stats(),
		"l1d.tick":  m.L1D.Tick(),
		"l2.tick":   m.L2.Tick(),
		"l1d.sets":  dump(m.L1D),
		"l2.sets":   dump(m.L2),
		"timing":    m.Timing.Breakdown(),
	}
}

func checkSameState(t *testing.T, label string, want, got map[string]any) {
	t.Helper()
	for k, w := range want {
		if !reflect.DeepEqual(w, got[k]) {
			t.Errorf("%s: %s differs:\n exact: %+v\n other: %+v", label, k, w, got[k])
		}
	}
}

// TestSummarizedReplayMatchesExact: the summarized engine (Replay)
// must leave the machine in a state bit-identical to the byte-decode
// oracle (ReplayExact) — footprint fast-path applications, bulk
// charges, and merged sampler settlements included — on both complete
// and truncated recordings.
func TestSummarizedReplayMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"complete", 0},
		{"truncated", 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, tr := recordedTrace(t, "jess", tc.budget)
			requireSegments(t, tc.name, tr.summaryFor(prog))

			exact := freshEnv(t, prog)
			if err := tr.ReplayExact(exact); err != nil {
				t.Fatalf("ReplayExact: %v", err)
			}
			want := machineState(exact.Mach)

			sum := freshEnv(t, prog)
			if err := tr.Replay(sum); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			checkSameState(t, "summarized", want, machineState(sum.Mach))
		})
	}
}

// TestParallelReplayMatchesSerial: span-parallel replay must be
// bit-identical to the serial oracle at several worker counts, with a
// block listener installed (forcing the internal serial fallback),
// and on truncated traces (divergence-check mode).
func TestParallelReplayMatchesSerial(t *testing.T) {
	prog, tr := recordedTrace(t, "jess", 0)
	requireSegments(t, "complete", tr.summaryFor(prog))

	exact := freshEnv(t, prog)
	if err := tr.ReplayExact(exact); err != nil {
		t.Fatalf("ReplayExact: %v", err)
	}
	want := machineState(exact.Mach)

	for _, workers := range []int{2, 4, 8} {
		par := freshEnv(t, prog)
		if err := tr.ReplayParallel(par, workers); err != nil {
			t.Fatalf("ReplayParallel(%d): %v", workers, err)
		}
		checkSameState(t, "parallel", want, machineState(par.Mach))
	}

	// A block listener makes speculation unsound; ReplayParallel must
	// fall back internally and still match (and fire the listener the
	// same number of times as the exact path).
	countBlocks := func(env *Env) *int {
		n := new(int)
		env.BlockListener = func(uint64, int) { *n++ }
		return n
	}
	le := freshEnv(t, prog)
	ne := countBlocks(&le)
	if err := tr.ReplayExact(le); err != nil {
		t.Fatal(err)
	}
	lp := freshEnv(t, prog)
	np := countBlocks(&lp)
	if err := tr.ReplayParallel(lp, 4); err != nil {
		t.Fatal(err)
	}
	if *ne == 0 || *ne != *np {
		t.Errorf("listener fired %d times under parallel, want %d (non-zero)", *np, *ne)
	}
	checkSameState(t, "listener-fallback", machineState(le.Mach), machineState(lp.Mach))

	_, trunc := recordedTrace(t, "jess", 2_000_000)
	requireSegments(t, "truncated", trunc.summaryFor(prog))
	te := freshEnv(t, prog)
	if err := trunc.ReplayExact(te); err != nil {
		t.Fatal(err)
	}
	tp := freshEnv(t, prog)
	if err := trunc.ReplayParallel(tp, 4); err != nil {
		t.Fatal(err)
	}
	checkSameState(t, "truncated-parallel", machineState(te.Mach), machineState(tp.Mach))
}

// TestSummaryMalformedMatchesExactClass: hand-built malformed streams
// must fail the summarized path with the same error class as the
// oracle — and never panic. (Hand-built traces without summary state
// take the exact path; attach state explicitly to force
// summarization.)
func TestSummaryMalformedMatchesExactClass(t *testing.T) {
	env := testEnv(t)
	cases := map[string][]byte{
		"missing end marker": {},
		"unknown ext":        {kExt | 20<<3},
		"bad operand":        {kBatch | payloadEscape<<3},
		"exit underflow":     {kExit},
		"block no frame":     {kBlock | 1<<3},
		"method range":       {kEnter | payloadEscape<<3, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, raw := range cases {
		tr := &Trace{chunks: [][]byte{raw}, size: len(raw), sumState: new(sumState)}
		if err := tr.Replay(env); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: summarized err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestRecorderArenaAllocs: chunks are carved from shared arenas, so
// recording many chunks' worth of events must cost far fewer
// allocations than one make() per chunk.
func TestRecorderArenaAllocs(t *testing.T) {
	const events = 20 * chunkBytes // 1-byte events → ~20 sealed chunks
	allocs := testing.AllocsPerRun(3, func() {
		r := NewRecorder()
		for i := 0; i < events; i++ {
			r.RecordBranch(true)
		}
		if _, err := r.Finish(true); err != nil {
			t.Fatal(err)
		}
	})
	// Expected: the recorder, ~2 arenas (16 chunks each), the Finish
	// trace copy + summary state, and the chunk-slice growth appends.
	// One allocation per chunk (the old behaviour) would exceed this.
	if allocs > 15 {
		t.Errorf("recording %d chunks cost %.0f allocs/run, want arena-bounded (<= 15)", events/chunkBytes, allocs)
	}
}

// TestSummaryCachedOnce: the summary is decoded once per trace and
// shared across replays (the decode-once contract the replay-many
// speedup rests on).
func TestSummaryCachedOnce(t *testing.T) {
	prog, tr := recordedTrace(t, "db", 500_000)
	s1 := tr.summaryFor(prog)
	s2 := tr.summaryFor(prog)
	if s1 == nil || s1 != s2 {
		t.Errorf("summaryFor not cached: %p vs %p", s1, s2)
	}
	// A different program must not resolve against the cached summary.
	spec, _ := workload.ByName("jess")
	other, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.summaryFor(other); s != nil {
		t.Error("summaryFor resolved against a mismatched program")
	}
}
