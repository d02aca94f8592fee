package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so a spread computed here is the spread the driver computes. One sample
// is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	return quantile(s, 1, 4), quantile(s, 2, 4), quantile(s, 3, 4)
}

// quantile is the i-th of n cut points of the sorted sample s (len >= 2).
func quantile(s []float64, i, n int) float64 {
	m := len(s)
	j := i * (m + 1) / n
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := i*(m+1) - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// dist summarises one metric's samples: the reported value is the median
// (the upper quartile for a single-run workload's warm_runs_per_s).
type dist struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64, unit string) dist {
	q1, med, q3 := quartiles(xs)
	return dist{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// mapped applies a monotone function to a summary (rate = work / wall turns
// the upper wall quartile into the lower rate quartile).
func (d dist) mapped(unit string, f func(float64) float64) dist {
	a, b := f(d.Q1), f(d.Q3)
	if a > b {
		a, b = b, a
	}
	return dist{Value: f(d.Value), Unit: unit, Q1: a, Q3: b, N: d.N}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / med)
}
