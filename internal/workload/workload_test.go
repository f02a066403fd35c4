package workload

import (
	"errors"
	"reflect"
	"testing"

	"acedo/internal/machine"
	"acedo/internal/vm"
)

func TestSuiteHasSevenBenchmarks(t *testing.T) {
	suite := Suite()
	if len(suite) != 7 {
		t.Fatalf("suite size = %d, want 7", len(suite))
	}
	want := []string{"compress", "db", "jack", "javac", "jess", "mpeg", "mtrt"}
	for i, s := range suite {
		if s.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, s.Name, want[i])
		}
		if s.Desc == "" {
			t.Errorf("%s: missing description", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("db"); !ok || s.Name != "db" {
		t.Error("ByName(db) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	for _, want := range Suite() {
		if got, ok := ByName(want.Name); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) = %+v, %v; want the Suite spec", want.Name, got.Name, ok)
		}
	}
}

func TestAllSpecsBuild(t *testing.T) {
	for _, s := range Suite() {
		if _, err := s.Build(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	s, _ := ByName("compress")
	p1 := s.MustBuild()
	p2 := s.MustBuild()
	if p1.TotalStaticInstrs != p2.TotalStaticInstrs || p1.NumMethods() != p2.NumMethods() {
		t.Error("builds differ structurally")
	}
	if p1.Methods[3].Disassemble() != p2.Methods[3].Disassemble() {
		t.Error("builds differ in code")
	}
}

func TestWithMainLoops(t *testing.T) {
	s, _ := ByName("jess")
	if s.WithMainLoops(2).MainLoops != 2 {
		t.Error("WithMainLoops(2) wrong")
	}
	if s.WithMainLoops(0).MainLoops != 1 {
		t.Error("WithMainLoops clamps at 1")
	}
	if s.MainLoops == 2 {
		t.Error("WithMainLoops must not mutate the receiver")
	}
}

func TestValidationRejectsBadSpecs(t *testing.T) {
	base := Compress()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no leaves", func(s *Spec) { s.Leaves = nil }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"no script", func(s *Spec) { s.Script = nil }},
		{"zero loops", func(s *Spec) { s.MainLoops = 0 }},
		{"bad leaf index", func(s *Spec) { s.Phases[0].Runs[0].Leaf = 99 }},
		{"zero run count", func(s *Spec) { s.Phases[0].Runs[0].Count = 0 }},
		{"bad once leaf", func(s *Spec) { s.Phases[0].OnceRuns[0].Leaf = -1 }},
		{"bad script phase", func(s *Spec) { s.Script[0].Phase = 99 }},
		{"bad trans index", func(s *Spec) { s.Script[0].TransMix[0] = 99 }},
		{"chunk not argbase", func(s *Spec) { s.Phases[0].ChunkLeaf = 0; s.Phases[0].RegionWords = 4096 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Compress() // fresh copy: mutations must not leak
			c.mutate(&s)
			if _, err := s.Build(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := base.Build(); err != nil {
		t.Fatalf("baseline spec must remain valid: %v", err)
	}
}

// TestAllBenchmarksExecute runs a slice of every benchmark and checks
// that execution is fault-free and that the DO system finds hotspots.
func TestAllBenchmarksExecute(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			prog := s.WithMainLoops(2).MustBuild()
			mach, err := machine.New(machine.PaperConfig(10))
			if err != nil {
				t.Fatal(err)
			}
			vp := vm.DefaultParams()
			vp.HotThreshold = 3
			vp.MinSamples = 1
			aos := vm.NewAOS(vp, mach, prog)
			eng, err := vm.NewEngine(prog, mach, aos)
			if err != nil {
				t.Fatal(err)
			}
			err = eng.Run(4_000_000)
			if err != nil && !errors.Is(err, vm.ErrBudget) {
				t.Fatalf("execution fault: %v", err)
			}
			if aos.Promotions() == 0 {
				t.Error("no hotspots detected in 4M instructions")
			}
			// Hotspot-dominated execution, as in the paper's
			// Table 4.
			frac := float64(aos.HotspotInstr()) / float64(mach.Instructions())
			if frac < 0.5 {
				t.Errorf("hotspot instruction share = %.2f, want ≥0.5", frac)
			}
		})
	}
}

// TestBenchmarksRunToCompletion executes two full (shortened) programs
// end to end.
func TestBenchmarksRunToCompletion(t *testing.T) {
	for _, name := range []string{"compress", "mtrt"} {
		s, _ := ByName(name)
		prog := s.WithMainLoops(1).MustBuild()
		mach, err := machine.New(machine.PaperConfig(10))
		if err != nil {
			t.Fatal(err)
		}
		aos := vm.NewAOS(vm.DefaultParams(), mach, prog)
		eng, err := vm.NewEngine(prog, mach, aos)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !eng.Halted() {
			t.Errorf("%s: did not halt", name)
		}
	}
}

func TestLeafKindString(t *testing.T) {
	for _, k := range []LeafKind{SeqRead, SeqWrite, Probe, Compute} {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("kind %d has no name", k)
		}
	}
	if LeafKind(9).String() != "kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestProbeLeavesGetSeedCells(t *testing.T) {
	// A spec with one probe leaf must allocate footprint+1 words.
	s := Spec{
		Name: "probe",
		Seed: 1,
		Leaves: []LeafSpec{
			{Name: "p", Kind: Probe, FootprintWords: 1024, Iters: 600},
		},
		Phases: []PhaseSpec{
			{Name: "ph", Runs: []LeafRun{{0, 2}}, Reps: 4, ChunkLeaf: -1},
		},
		TransPool:           1,
		TransFootprintWords: 64,
		Script:              []Step{{Phase: 0, Reps: 2}},
		MainLoops:           1,
	}
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.MemWords <= 1024 {
		t.Errorf("MemWords = %d, want > footprint (seed cell + slack)", p.MemWords)
	}
}
