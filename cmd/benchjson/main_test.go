package main

import (
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: acedo
cpu: some cpu
BenchmarkEngine-4     	       3	 350000000 ns/op	        190.0 Minstr/s
BenchmarkEngine-4     	       3	 360000000 ns/op	        185.0 Minstr/s
BenchmarkEngine-4     	       3	 340000000 ns/op	        195.0 Minstr/s
BenchmarkSuite-4      	       1	5000000000 ns/op
PASS
ok  	acedo	12.3s
`

func parseText(t *testing.T, text string) *Record {
	t.Helper()
	rec, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestParseMediansAndContext(t *testing.T) {
	rec := parseText(t, benchText)
	if len(rec.Context) != 4 {
		t.Errorf("context lines = %d, want 4", len(rec.Context))
	}
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rec.Benchmarks))
	}
	eng := rec.Benchmarks[0]
	if eng.Name != "BenchmarkEngine" {
		t.Fatalf("name = %q (want GOMAXPROCS suffix stripped)", eng.Name)
	}
	if got := eng.Median.Metrics["Minstr/s"]; got != 190 {
		t.Errorf("median Minstr/s = %v, want 190", got)
	}
	if got := eng.Median.NsPerOp; got != 350000000 {
		t.Errorf("median ns/op = %v, want 350000000", got)
	}
}

// record builds a single-run record for compare tests: each entry is
// name, ns/op, and an optional Minstr/s value (0 = absent).
func record(entries ...[3]any) *Record {
	rec := &Record{SchemaVersion: SchemaVersion}
	for _, e := range entries {
		run := Run{Iterations: 1, NsPerOp: e[1].(float64)}
		if m := e[2].(float64); m != 0 {
			run.Metrics = map[string]float64{"Minstr/s": m}
		}
		rec.Benchmarks = append(rec.Benchmarks, Benchmark{
			Name: e[0].(string), Runs: []Run{run}, Median: run,
		})
	}
	return rec
}

func TestCompareBestOfMultipleOlds(t *testing.T) {
	// Two committed records; the second holds the high-water mark.
	old1 := record([3]any{"BenchmarkEngine", 400e6, 170.0})
	old2 := record([3]any{"BenchmarkEngine", 350e6, 200.0})
	// 184 Minstr/s is within 15% of 200 but would pass trivially
	// against 170; the gate must use the best old value.
	new_ := record([3]any{"BenchmarkEngine", 380e6, 184.0})
	var b strings.Builder
	if !compareRecords(&b, []*Record{old1, old2}, new_, "Minstr/s", 15, nil) {
		t.Errorf("within-threshold run failed against best-of olds:\n%s", b.String())
	}
	// 160 Minstr/s is a 20% drop from the 200 high-water mark even
	// though it is within 15% of old1's 170.
	slow := record([3]any{"BenchmarkEngine", 450e6, 160.0})
	b.Reset()
	if compareRecords(&b, []*Record{old1, old2}, slow, "Minstr/s", 15, nil) {
		t.Errorf("20%% drop from best old passed:\n%s", b.String())
	}
}

func TestCompareNsPerOpFallbackUsesLowestOld(t *testing.T) {
	old1 := record([3]any{"BenchmarkSuite", 6e9, 0.0})
	old2 := record([3]any{"BenchmarkSuite", 4e9, 0.0})
	// 5e9 ns/op is a 25% rise over the 4e9 best.
	new_ := record([3]any{"BenchmarkSuite", 5e9, 0.0})
	var b strings.Builder
	if compareRecords(&b, []*Record{old1, old2}, new_, "Minstr/s", 15, nil) {
		t.Errorf("25%% ns/op rise over best old passed:\n%s", b.String())
	}
}

func TestCompareOverrideLoosensOneBenchmark(t *testing.T) {
	old := record(
		[3]any{"BenchmarkEngine", 350e6, 200.0},
		[3]any{"BenchmarkSuite", 4e9, 0.0},
	)
	new_ := record(
		[3]any{"BenchmarkEngine", 355e6, 198.0},
		[3]any{"BenchmarkSuite", 4.8e9, 0.0}, // +20%: noisy suite
	)
	var b strings.Builder
	if compareRecords(&b, []*Record{old}, new_, "Minstr/s", 15, nil) {
		t.Fatalf("suite regression passed without override:\n%s", b.String())
	}
	b.Reset()
	ov := map[string]float64{"BenchmarkSuite": 25}
	if !compareRecords(&b, []*Record{old}, new_, "Minstr/s", 15, ov) {
		t.Errorf("override did not loosen the suite threshold:\n%s", b.String())
	}
	// The override must not loosen other benchmarks.
	bad := record(
		[3]any{"BenchmarkEngine", 500e6, 140.0}, // -30%
		[3]any{"BenchmarkSuite", 4e9, 0.0},
	)
	b.Reset()
	if compareRecords(&b, []*Record{old}, bad, "Minstr/s", 15, ov) {
		t.Errorf("engine regression passed under unrelated override:\n%s", b.String())
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := record([3]any{"BenchmarkEngine", 350e6, 200.0})
	var b strings.Builder
	if compareRecords(&b, []*Record{old}, &Record{SchemaVersion: SchemaVersion}, "Minstr/s", 15, nil) {
		t.Errorf("missing benchmark passed:\n%s", b.String())
	}
}

// TestCompareNewBenchmarkPasses: a benchmark that no old record lists
// prints "new" and does not fail the gate.
func TestCompareNewBenchmarkPasses(t *testing.T) {
	old := record([3]any{"BenchmarkEngine", 350e6, 200.0})
	new_ := record(
		[3]any{"BenchmarkEngine", 350e6, 200.0},
		[3]any{"BenchmarkReplayBBV", 25e6, 400.0},
	)
	var b strings.Builder
	if !compareRecords(&b, []*Record{old}, new_, "Minstr/s", 15, nil) {
		t.Errorf("new benchmark failed the gate:\n%s", b.String())
	}
	reported := false
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		reported = reported || len(f) == 4 && f[0] == "BenchmarkReplayBBV" && f[2] == "new"
	}
	if !reported {
		t.Errorf("new benchmark not reported as new:\n%s", b.String())
	}
}

// TestCompareRetiredBenchmarkPasses: a benchmark on the retired list
// that the new record lacks prints "retired" and does not fail the
// gate, while an unretired missing benchmark in the same comparison
// still does.
func TestCompareRetiredBenchmarkPasses(t *testing.T) {
	old := record(
		[3]any{"BenchmarkEngine", 350e6, 200.0},
		[3]any{"BenchmarkReplayParallel", 77e6, 0.0},
	)
	new_ := record([3]any{"BenchmarkEngine", 350e6, 200.0})
	var b strings.Builder
	if !compareRecords(&b, []*Record{old}, new_, "Minstr/s", 15, nil) {
		t.Errorf("retired benchmark failed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "retired") {
		t.Errorf("retired benchmark not reported as retired:\n%s", b.String())
	}

	old = record(
		[3]any{"BenchmarkReplayParallel", 77e6, 0.0},
		[3]any{"BenchmarkSuite", 1e9, 0.0},
	)
	b.Reset()
	if compareRecords(&b, []*Record{old}, new_, "Minstr/s", 15, nil) {
		t.Errorf("unretired missing benchmark passed:\n%s", b.String())
	}
}

func TestOverrideFlagParsing(t *testing.T) {
	o := overrideFlag{}
	if err := o.Set("BenchmarkSuite=25"); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("BenchmarkEngine=5"); err != nil {
		t.Fatal(err)
	}
	if o["BenchmarkSuite"] != 25 || o["BenchmarkEngine"] != 5 {
		t.Errorf("parsed overrides = %v", o)
	}
	if got, want := o.String(), "BenchmarkEngine=5,BenchmarkSuite=25"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	for _, bad := range []string{"", "=5", "name", "name=x", "name=-3"} {
		if err := o.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}
