package main

import (
	"math"
	"sort"
)

// median of xs (mean of the middle two for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank, and
// how many samples lie strictly beyond the returned rank.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// minBeyond is the choosing-metrics rule: a tail percentile is reported
// only with at least this many samples beyond it.
const minBeyond = 10

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method) — the spread
// measure the driver applies to a metric's per-run values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return s[0], s[0]
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
