package main

import "testing"

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	// Parent runs of a lower-is-better metric: median 11, spread ~11%.
	parent := []float64{10, 11, 10, 12, 11, 10, 11, 12, 10, 11}
	eightOfTen := scaled(parent, 0.7)
	eightOfTen[0], eightOfTen[1] = 20, 20
	wide := []float64{5, 15, 10, 20, 8, 12, 6, 18, 9, 14}

	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		drift        bool
		want         string
	}{
		{"every pair faster by more than the IQR", parent, scaled(parent, 0.7), false, 0.15, false, improved},
		{"throughput up", parent, scaled(parent, 1.3), true, 0.15, false, improved},
		{"20% slower, bound 15%", parent, scaled(parent, 1.2), false, 0.15, false, regressed},
		{"throughput down 20%", parent, scaled(parent, 0.8), true, 0.15, false, regressed},
		{"same runs", parent, parent, false, 0.15, false, unchanged},
		{"5% slower, bound 15%", parent, scaled(parent, 1.05), false, 0.15, false, unchanged},
		{"8 of 10 pairs won is no gain", parent, eightOfTen, false, 0.15, false, unchanged},
		{"parent spread wider than the bound", wide, scaled(wide, 1.05), false, 0.15, false, unresolved},
		{"drift within a run", parent, scaled(parent, 0.7), false, 0.15, true, unresolved},
		{"no pairs", nil, nil, false, 0.15, false, unresolved},
	} {
		if got := judge(c.a, c.b, c.higherBetter, c.bound, c.drift); got.verdict != c.want {
			t.Errorf("%s: verdict %s (%s), want %s", c.name, got.verdict, got.reason, c.want)
		}
	}
}

func TestCompareSetsPairsByWorkload(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDecl{{Name: "cold_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	rec := func(w string, v float64, drift ...string) *record {
		return &record{Workload: w, Metrics: map[string]metric{"cold_ms": {v, "ms"}}, Drift: drift}
	}
	var a, b []*record
	for i := 0; i < 10; i++ {
		a = append(a, rec("suite", 100+float64(i%2)), rec("service", 10))
		b = append(b, rec("suite", 80+float64(i%2)), rec("service", 10, "cold_ms"))
	}
	b = append(b, &record{Workload: "suite", Traced: true}) // traced runs are not compared
	got := map[string]comparison{}
	for _, c := range compareSets(spec, a, b) {
		got[c.workload] = c
	}
	if c := got["suite"]; c.pairs != 10 || c.wins != 10 || c.verdict != improved {
		t.Errorf("suite: %+v, want 10/10 pairs won, improved", c)
	}
	if c := got["service"]; c.verdict != unresolved {
		t.Errorf("service with a drifting run: %+v, want unresolved", c)
	}
	if _, ok := got["optimize"]; ok {
		t.Error("a workload with no records was compared")
	}
}
