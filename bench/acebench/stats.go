package main

import (
	"math"
	"sort"
	"time"
)

// millis converts a duration to milliseconds at full precision.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (rank (n-1)·p/100). It returns
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	r := float64(len(s)-1) * p / 100
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile picks the highest percentile of n samples that still
// has at least ten samples beyond it — p99 from 1000 samples, p90 from
// 100. Below 100 samples the tail falls back to the median, the only
// one of these percentiles with ten samples beyond it in the suite's
// at most 96 warm samples a run or the optimize workload's 4.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	}
	return 50
}

// quartiles returns the first, second and third quartiles of xs with
// the exclusive method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's acceptance check uses. It needs at least two
// samples; with one it returns that sample three times.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		nan := math.NaN()
		return [3]float64{nan, nan, nan}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median — the
// benchmark's run-to-run noise measure.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// halves is the steady-state check's measurement (Barrett et al.).
// Each series is one process's samples in execution order; halves
// pools the first halves of all series and the second halves and
// returns stat (the median, or the tail percentile) over each pool.
// Series shorter than four samples cannot be split meaningfully and
// are left out; ok is false when none is left.
func halves(stat func([]float64) float64, series ...[]float64) (first, second float64, ok bool) {
	var a, b []float64
	for _, s := range series {
		if len(s) < 4 {
			continue
		}
		h := len(s) / 2
		a = append(a, s[:h]...)
		b = append(b, s[len(s)-h:]...)
	}
	if len(a) == 0 {
		return 0, 0, false
	}
	return stat(a), stat(b), true
}

// drifted reports whether the second half's value differs from the
// first's by more than bound, as a share of the first.
func drifted(first, second, bound float64) bool {
	if first == 0 {
		return second != 0
	}
	return math.Abs(second-first)/math.Abs(first) > bound
}
