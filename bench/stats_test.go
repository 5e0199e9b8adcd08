package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median must not reorder its input")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// The choosing-metrics rule: a tail percentile is only named with at least
// ten samples beyond it.
func TestPercentileCountsBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	v, beyond := percentile(seq(1000), 0.99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(seq(999), 0.99); beyond != 9 {
		t.Errorf("999 samples leave %d beyond p99, want 9", beyond)
	}
	if _, beyond := percentile(seq(200), 0.99); beyond != 2 {
		t.Errorf("200 samples leave %d beyond p99, want 2", beyond)
	}
	if v, _ := percentile(seq(200), 0.50); v != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", v)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([2.0, 3.5, 3.6, 9.0, 11.0], n=4) -> [2.75, 3.6, 10.0]
	q1, q3 = quartiles([]float64{2.0, 3.5, 3.6, 9.0, 11.0})
	if !near(q1, 2.75) || !near(q3, 10.0) {
		t.Errorf("quartiles = %v, %v, want 2.75, 10", q1, q3)
	}
	// >>> statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1.0) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two samples is 0")
	}
}

func TestRepPercentile(t *testing.T) {
	reps := make([][]float64, 5)
	for r := range reps {
		for i := 0; i < 200; i++ {
			reps[r] = append(reps[r], float64(i+1)/1000) // seconds
		}
	}
	// One repetition caught a noisy second: everything in it took 3x.
	for i := range reps[4] {
		reps[4][i] *= 3
	}
	m, ok := repPercentile("p99", "us", 0.99, reps, 1e6)
	if !ok || m.N != 1000 || m.K != 5 || !near(m.Median, 198_000) {
		t.Errorf("p99 = %+v ok=%v, want 198000 us (the median repetition's) over 1000 samples from 5 repetitions", m, ok)
	}
	if len(m.Samples) != 5 || !near(m.Max, 594_000) || !near(m.Min, 198_000) {
		t.Errorf("per-repetition percentiles = %v, want four at 198000 and the slow one at 594000", m.Samples)
	}
	// 5 x 2 samples beyond their repetition's p99 make ten; 4 x 2 do not.
	if _, ok := repPercentile("p99", "s", 0.99, reps[:4], 1); ok {
		t.Error("four repetitions of 200 leave 8 samples beyond p99: must not be reportable")
	}
}
