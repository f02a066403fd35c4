package vm

// Differential determinism tests for the execution modes: the
// block-batched ModeOptimized must be architecturally indistinguishable
// from the instruction-at-a-time ModeBaseline oracle — identical
// machine snapshots, memory images, DO databases, sample credits, and
// fault-injection effects — differing only in host wall-clock speed.

import (
	"math/rand"
	"reflect"
	"testing"

	"acedo/internal/fault"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/workload"
)

// tierRun captures everything architecturally observable after a run.
type tierRun struct {
	snap     machine.Snapshot
	mem      []int64
	profiles []MethodProfile
	batches  uint64 // RecordBody calls retiring more than one instruction
	err      error
	halted   bool
	promos   uint64
	overhead uint64
	hotInstr uint64
	dropped  uint64
	dup      uint64
}

// runTier executes a freshly built program under one mode and returns
// the observable state. plan, when non-nil, arms the timer-sample
// injection point with a deterministic injector.
func runTier(t *testing.T, build func() *program.Program, mode ExecMode, params Params, budget uint64, plan *fault.Plan) tierRun {
	t.Helper()
	prog := build()
	mach := machine.MustNew(machine.PaperConfig(10))
	aos := NewAOS(params, mach, prog)
	if plan != nil {
		inj, err := fault.New(plan, "differential", "vm")
		if err != nil {
			t.Fatal(err)
		}
		aos.SetFaults(inj)
	}
	eng, err := NewEngine(prog, mach, aos)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetMode(mode)
	var rec batchCounter
	if err := eng.SetRecorder(&rec); err != nil {
		t.Fatal(err)
	}
	runErr := eng.Run(budget)
	return tierRun{
		snap:     mach.Snapshot(),
		mem:      eng.Mem(),
		profiles: aos.Profiles(),
		batches:  rec.batches,
		err:      runErr,
		halted:   eng.Halted(),
		promos:   aos.Promotions(),
		overhead: aos.OverheadInstr(),
		hotInstr: aos.HotspotInstr(),
		dropped:  aos.DroppedSamples(),
		dup:      aos.DupSamples(),
	}
}

// batchCounter is a Recorder that counts the bodies retiring more
// than one instruction: only the batched path reports those, so it
// tells the two modes apart without perturbing either.
type batchCounter struct{ batches uint64 }

func (c *batchCounter) RecordEnter(program.MethodID, uint64, uint64, bool) {}
func (c *batchCounter) RecordBlock(int, uint64, uint64, bool)              {}
func (c *batchCounter) RecordExit()                                        {}
func (c *batchCounter) RecordHalt()                                        {}
func (c *batchCounter) RecordBody(_ []uint64, n uint64, _ int8) {
	if n > 1 {
		c.batches++
	}
}

// diffTiers fails the test unless got is architecturally identical to
// want (the ModeBaseline oracle).
func diffTiers(t *testing.T, label string, want, got tierRun) {
	t.Helper()
	if want.snap != got.snap {
		t.Errorf("%s: snapshot diverged:\n baseline %+v\n got      %+v", label, want.snap, got.snap)
	}
	if !reflect.DeepEqual(want.mem, got.mem) {
		t.Errorf("%s: memory image diverged", label)
	}
	if !reflect.DeepEqual(want.profiles, got.profiles) {
		t.Errorf("%s: DO database diverged:\n baseline %+v\n got      %+v", label, want.profiles, got.profiles)
	}
	if want.err != got.err {
		t.Errorf("%s: run error diverged: baseline %v, got %v", label, want.err, got.err)
	}
	if want.halted != got.halted {
		t.Errorf("%s: halted diverged: baseline %v, got %v", label, want.halted, got.halted)
	}
	if want.promos != got.promos || want.overhead != got.overhead || want.hotInstr != got.hotInstr {
		t.Errorf("%s: AOS counters diverged: baseline promos=%d overhead=%d hot=%d, got promos=%d overhead=%d hot=%d",
			label, want.promos, want.overhead, want.hotInstr, got.promos, got.overhead, got.hotInstr)
	}
	if want.dropped != got.dropped || want.dup != got.dup {
		t.Errorf("%s: sample fault counters diverged: baseline drop=%d dup=%d, got drop=%d dup=%d",
			label, want.dropped, want.dup, got.dropped, got.dup)
	}
}

// TestExecModesArchitecturallyIdentical runs every suite workload
// under both modes and requires bit-identical observable state,
// both under an instruction budget and to completion.
func TestExecModesArchitecturallyIdentical(t *testing.T) {
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			build := func() *program.Program {
				prog, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}
			const budget = 400_000
			base := runTier(t, build, ModeBaseline, DefaultParams(), budget, nil)
			if base.batches != 0 {
				t.Fatalf("baseline mode reported %d multi-instruction bodies", base.batches)
			}
			opt := runTier(t, build, ModeOptimized, DefaultParams(), budget, nil)
			if opt.batches == 0 {
				t.Fatal("optimized mode never used the batched path")
			}
			diffTiers(t, "optimized", base, opt)
		})
	}
}

// TestExecModesIdenticalUnderSampleFaults pins the batched sampler
// settlement against the oracle when the fault injector drops and
// duplicates timer samples: the injector must be consulted once per
// due sample in the identical order, so the lossy-profiler effects on
// the DO database replay exactly.
func TestExecModesIdenticalUnderSampleFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 20260806, Rules: []fault.Rule{
		{Point: fault.PointTimerSample, Kind: fault.KindDrop, Prob: 0.3},
		{Point: fault.PointTimerSample, Kind: fault.KindDuplicate, Prob: 0.2},
	}}
	params := DefaultParams()
	params.SampleInterval = 1_000 // dense sampling exercises the replay
	spec := workload.Suite()[0]
	build := func() *program.Program {
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	base := runTier(t, build, ModeBaseline, params, 500_000, plan)
	if base.dropped == 0 && base.dup == 0 {
		t.Fatal("fault plan produced no sample faults; test is vacuous")
	}
	diffTiers(t, "optimized", base, runTier(t, build, ModeOptimized, params, 500_000, plan))
}

// TestExecModesIdenticalOnRandomPrograms drives the mode equivalence
// over generated programs (the reference-interpreter generator), to
// cover shapes the curated workloads do not.
func TestExecModesIdenticalOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := genProgramInner(rng, newFuzzBuilder(), 1<<12)
		build := func() *program.Program {
			p := prog
			if p == nil {
				t.Fatal("nil program")
			}
			return p
		}
		// The program is shared across modes: the engine mutates only
		// its own memory image, never the sealed program.
		base := runTier(t, build, ModeBaseline, testParams(), 0, nil)
		diffTiers(t, "optimized", base, runTier(t, build, ModeOptimized, testParams(), 0, nil))
	}
}
