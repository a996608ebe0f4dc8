package main

import (
	"math"
	"sort"
)

// metric is one reported number with the spread of the samples behind it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank; xs
// need not be sorted and is not modified.  It is 0 for no samples (a run
// with no samples has attempted nothing and fails its checks).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// summarize reports the median of xs with its quartiles.
func summarize(xs []float64, unit string) metric {
	m := metric{Unit: unit, N: len(xs), Median: quantile(xs, 0.5), P25: quantile(xs, 0.25), P75: quantile(xs, 0.75)}
	m.Value = m.Median
	return m
}

// pooled reports the q-quantile of all samples, with the quartiles of the
// same samples for scale.
func pooled(xs []float64, q float64, unit string) metric {
	m := summarize(xs, unit)
	m.Value = quantile(xs, q)
	return m
}

// single reports one measured value.
func single(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, N: 1, Median: v, P25: v, P75: v}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
