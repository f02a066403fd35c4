package rtrace

import (
	"reflect"
	"testing"

	"acedo/internal/cache"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

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
			t.Errorf("%s: %s differs:\n want: %+v\n got:  %+v", label, k, w, got[k])
		}
	}
}

// TestSummaryCachedOnce: a trace's summary is built once, at record
// time, and shared by every replay against the recording's program.
func TestSummaryCachedOnce(t *testing.T) {
	prog, tr := directTrace(t, "db", 500_000)
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

// TestSummarizedReplayMatchesExact: the fused walk, which folds the
// arithmetic charges of straight-line runs into bulk charges, must
// leave the machine bit-identical to the exact walk, which applies
// every op on its own. A block listener forces the exact walk, so a
// no-op one gives the reference.
func TestSummarizedReplayMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"complete", 0},
		{"truncated", 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, tr := directTrace(t, "jess", tc.budget)
			requireSegments(t, tc.name, tr.summaryFor(prog))

			exact := freshEnv(t, prog)
			exact.BlockListener = func(uint64, int) {}
			if err := tr.Replay(exact); err != nil {
				t.Fatalf("exact replay: %v", err)
			}
			want := machineState(exact.Mach)

			sum := freshEnv(t, prog)
			if err := tr.Replay(sum); err != nil {
				t.Fatalf("fused replay: %v", err)
			}
			checkSameState(t, "summarized", want, machineState(sum.Mach))
		})
	}
}
