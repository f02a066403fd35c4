package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 90); !near(got, 9.1) {
		t.Errorf("p90 of 1..10 = %v, want 9.1", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.2}, [3]float64{0.85, 1.05, 1.225}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestSteadyStateCheck(t *testing.T) {
	flat := []float64{10, 11, 9, 10, 10, 11, 9, 10}
	rising := []float64{10, 10, 10, 10, 13, 13, 13, 13}
	a, b, ok := halves(median, flat)
	if !ok || drifted(a, b, 0.1) {
		t.Errorf("flat series drifted: %v → %v", a, b)
	}
	a, b, ok = halves(median, rising)
	if !ok || !drifted(a, b, 0.1) || drifted(a, b, 0.5) {
		t.Errorf("rising series 10 → 13: halves %v → %v", a, b)
	}
	// Each process's series splits on its own: two flat processes at
	// different levels do not drift.
	if a, b, _ := halves(median, []float64{5, 5, 5, 5}, []float64{9, 9, 9, 9}); drifted(a, b, 0.1) {
		t.Errorf("per-process halves pooled wrongly: %v → %v", a, b)
	}
	if _, _, ok := halves(median, []float64{1, 2, 3}); ok {
		t.Error("a three-sample series was split")
	}
}
