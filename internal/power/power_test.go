package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModelsValidate(t *testing.T) {
	for _, m := range []Model{L1Model("L1D"), L1Model("L1I"), L2Model()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		// The paper's 4 Table 2 settings plus one extrapolated size
		// on each end for the widened optimize search space.
		if len(m.Sizes()) != 6 {
			t.Errorf("%s: %d sizes, want 6", m.Name, len(m.Sizes()))
		}
	}
}

func TestModelSizesSorted(t *testing.T) {
	sizes := L2Model().Sizes()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not ascending: %v", sizes)
		}
	}
}

func TestModelValidateRejects(t *testing.T) {
	bad := []Model{
		{Name: "empty"},
		{Name: "neg", AccessNJ: map[int]float64{8: -1}, LeakNJPerCycle: map[int]float64{8: 1}},
		{Name: "missingleak", AccessNJ: map[int]float64{8: 1}, LeakNJPerCycle: map[int]float64{}},
		{Name: "nonmono", AccessNJ: map[int]float64{8: 2, 16: 1}, LeakNJPerCycle: map[int]float64{8: 1, 16: 2}},
		{Name: "negflush", AccessNJ: map[int]float64{8: 1}, LeakNJPerCycle: map[int]float64{8: 1}, FlushLineNJ: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %s should be invalid", m.Name)
		}
	}
}

func TestMeterAccessEnergy(t *testing.T) {
	model := L1Model("L1D")
	m := MustNewMeter(model, 64*1024)
	m.Access()
	m.AccessN(9)
	m.Finalize(0)
	got := m.Totals().DynamicNJ
	want := 10 * model.AccessNJ[64*1024]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("dynamic = %v, want %v", got, want)
	}
}

func TestMeterLeakagePerEpoch(t *testing.T) {
	model := L1Model("L1D")
	m := MustNewMeter(model, 64*1024)
	// 100 cycles at 64K, then 100 cycles at 8K.
	if err := m.SetSize(8*1024, 100); err != nil {
		t.Fatal(err)
	}
	m.Finalize(200)
	want := 100*model.LeakNJPerCycle[64*1024] + 100*model.LeakNJPerCycle[8*1024]
	if got := m.Totals().LeakageNJ; math.Abs(got-want) > 1e-9 {
		t.Errorf("leakage = %v, want %v", got, want)
	}
}

func TestMeterFinalizeIsIncremental(t *testing.T) {
	model := L1Model("L1D")
	m := MustNewMeter(model, 8*1024)
	m.Finalize(50)
	m.Finalize(100)
	m.Finalize(100) // same cycle twice: no double charge
	want := 100 * model.LeakNJPerCycle[8*1024]
	if got := m.Totals().LeakageNJ; math.Abs(got-want) > 1e-9 {
		t.Errorf("leakage = %v, want %v", got, want)
	}
}

func TestMeterFinalizeIdempotentAcrossSnapshots(t *testing.T) {
	// Reading totals mid-run (interval sampling) must not perturb the
	// accounting: Finalize at an unchanged cycle count is a no-op, so
	// Finalize/Totals pairs can be interleaved freely.
	model := L1Model("L1D")
	m := MustNewMeter(model, 64*1024)
	m.AccessN(3)
	m.Finalize(100)
	first := m.Totals()
	for i := 0; i < 5; i++ {
		m.Finalize(100)
		if got := m.Totals(); got != first {
			t.Fatalf("snapshot %d changed totals: %+v != %+v", i, got, first)
		}
	}
	want := 100 * model.LeakNJPerCycle[64*1024]
	if math.Abs(first.LeakageNJ-want) > 1e-9 {
		t.Errorf("leakage = %v, want %v", first.LeakageNJ, want)
	}
}

func TestMeterSetSizeErrorLeavesEpochUnchanged(t *testing.T) {
	// A rejected resize must not close the leakage epoch or move its
	// start: later finalization still charges from the original epoch
	// boundary at the original size's rate.
	model := L1Model("L1D")
	m := MustNewMeter(model, 64*1024)
	m.Finalize(50)
	if err := m.SetSize(999, 80); err == nil {
		t.Fatal("unmodelled SetSize should fail")
	}
	if m.CurrentSize() != 64*1024 {
		t.Errorf("CurrentSize after failed SetSize = %d", m.CurrentSize())
	}
	m.Finalize(100)
	// 100 cycles at 64K total; a bug that accrued or restarted the
	// epoch at cycle 80 would charge a different amount.
	want := 100 * model.LeakNJPerCycle[64*1024]
	if got := m.Totals().LeakageNJ; math.Abs(got-want) > 1e-9 {
		t.Errorf("leakage = %v, want %v", got, want)
	}
}

func TestMeterFlushEnergy(t *testing.T) {
	model := L2Model()
	m := MustNewMeter(model, 1024*1024)
	m.FlushWritebacks(5)
	if got := m.Totals().FlushNJ; math.Abs(got-5*model.FlushLineNJ) > 1e-9 {
		t.Errorf("flush = %v", got)
	}
}

func TestMeterRejectsUnmodelledSize(t *testing.T) {
	if _, err := NewMeter(L1Model("L1D"), 12345); err == nil {
		t.Error("unmodelled start size should fail")
	}
	m := MustNewMeter(L1Model("L1D"), 8*1024)
	if err := m.SetSize(999, 10); err == nil {
		t.Error("unmodelled SetSize should fail")
	}
}

func TestMeterCurrentSize(t *testing.T) {
	m := MustNewMeter(L1Model("L1D"), 16*1024)
	if m.CurrentSize() != 16*1024 {
		t.Errorf("CurrentSize = %d", m.CurrentSize())
	}
	if err := m.SetSize(32*1024, 0); err != nil {
		t.Fatal(err)
	}
	if m.CurrentSize() != 32*1024 {
		t.Errorf("CurrentSize after SetSize = %d", m.CurrentSize())
	}
}

func TestTotalsSum(t *testing.T) {
	tot := Totals{DynamicNJ: 1, LeakageNJ: 2, FlushNJ: 3}
	if tot.TotalNJ() != 6 {
		t.Errorf("TotalNJ = %v", tot.TotalNJ())
	}
}

// Property: smaller configurations never cost more energy for the
// same activity (monotonicity of the energy model).
func TestSmallerSizeNeverCostsMoreProperty(t *testing.T) {
	model := L1Model("L1D")
	sizes := model.Sizes()
	f := func(accesses uint16, cycles uint16) bool {
		var prev float64 = -1
		for _, sz := range sizes {
			m := MustNewMeter(model, sz)
			m.AccessN(uint64(accesses))
			m.Finalize(uint64(cycles))
			tot := m.Totals().TotalNJ()
			if prev >= 0 && tot < prev {
				return false
			}
			prev = tot
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// seqAdd is repeatAdd's reference: n sequential float additions.
func seqAdd(d, c float64, n uint64) float64 {
	for ; n > 0; n-- {
		d += c
	}
	return d
}

// checkRepeatAdd fails unless repeatAdd(d, c, n) has the bits of n
// sequential adds.
func checkRepeatAdd(t *testing.T, d, c float64, n uint64) {
	t.Helper()
	want, got := seqAdd(d, c, n), repeatAdd(d, c, n)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("repeatAdd(%v, %v, %d) = %v (%#x), sequential adds give %v (%#x)",
			d, c, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRepeatAddMatchesSequential: AccessRepeat's O(1) charge must be
// bit-identical to adding the constant n times, over random totals,
// constants and counts (zero starts and counts in the millions
// included), rounding ties, constants below half an ulp, binade
// crossings, and subnormal, infinite and NaN operands.
func TestRepeatAddMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var consts []float64
	for _, m := range []Model{L1Model("L1D"), L2Model(), IQModel()} {
		for _, v := range m.AccessNJ {
			consts = append(consts, v)
		}
	}
	for i := 0; i < 3000; i++ {
		var d, c float64
		switch i % 3 {
		case 0:
			c = consts[rng.Intn(len(consts))]
		case 1:
			c = math.Ldexp(1+rng.Float64(), rng.Intn(60)-30)
		default:
			c = rng.Float64() * 10
		}
		if i%4 != 0 {
			d = math.Ldexp(rng.Float64(), rng.Intn(80)-20)
		}
		n := uint64(math.Exp(rng.Float64() * math.Log(1e5)))
		checkRepeatAdd(t, d, c, n)
	}
	for _, n := range []uint64{1 << 20, 3_000_001, 8_000_000} {
		checkRepeatAdd(t, 0, 0.07, n)
		checkRepeatAdd(t, 12345.678, 1.45, n)
	}

	ulp1 := math.Ldexp(1, -52) // ulp of [1, 2)
	big := math.Ldexp(1, 60)   // ulp 256
	for _, tc := range []struct {
		name string
		d, c float64
	}{
		// Ties: c/ulp a half-integer, so ties-to-even picks the step.
		{"tie 1.5ulp", 1, 1.5 * ulp1},
		{"tie 2.5ulp", 1, 2.5 * ulp1},
		{"tie 2.5ulp odd start", 1 + ulp1, 2.5 * ulp1},
		{"tie half ulp", 1, ulp1 / 2},
		{"tie half ulp odd start", 1 + ulp1, ulp1 / 2},
		{"tie large binade", big, 640},
		// Below half an ulp every add rounds back.
		{"below half ulp", big, 127.9},
		{"just above half ulp", big, 128.5},
		{"far below ulp", 1e300, 1},
		// Binade crossings.
		{"crossings", 0.9, 0.3},
		{"crossing at the top", 2 - ulp1, ulp1},
		{"step equals ulp", 1, ulp1},
		// Starts at or below c.
		{"zero start", 0, 0.21},
		{"negative start", -50, 0.7},
		{"start below c", 0.1, 0.3},
		// Non-normal operands.
		{"subnormal c", 1e-300, 5e-324},
		{"subnormal c zero start", 0, 3e-320},
		{"subnormal d", 5e-324, 1e-300},
		{"negative c", 10, -0.3},
		{"zero c", 10, 0},
		{"overflow to Inf", math.MaxFloat64 / 2, 1e300},
		{"Inf d", math.Inf(1), 0.5},
		{"-Inf d", math.Inf(-1), 0.5},
		{"NaN d", math.NaN(), 0.5},
		{"Inf c", 1, math.Inf(1)},
		{"-Inf c", 1, math.Inf(-1)},
		{"NaN c", 1, math.NaN()},
	} {
		for _, n := range []uint64{0, 1, 15, 16, 17, 100, 12_345, 1 << 20} {
			t.Run(tc.name, func(t *testing.T) { checkRepeatAdd(t, tc.d, tc.c, n) })
		}
	}
}

// TestAccessRepeatMatchesAccess: the meter-level charge equals n
// single Access calls, across a size change.
func TestAccessRepeatMatchesAccess(t *testing.T) {
	a := MustNewMeter(IQModel(), 64)
	b := MustNewMeter(IQModel(), 64)
	for _, step := range []struct {
		size int
		n    uint64
	}{{64, 1000}, {16, 77_777}, {48, 5}, {8, 1 << 18}} {
		if err := a.SetSize(step.size, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.SetSize(step.size, 0); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < step.n; i++ {
			a.Access()
		}
		b.AccessRepeat(step.n)
	}
	if x, y := a.Totals().DynamicNJ, b.Totals().DynamicNJ; math.Float64bits(x) != math.Float64bits(y) {
		t.Errorf("AccessRepeat total %v, sequential Access total %v", y, x)
	}
}
