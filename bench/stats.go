package main

import (
	"math"
	"sort"
)

// sample is one end-to-end metric of one workload in one run: the median over
// the run's segments (measured passes, or one-second slices of a paced run)
// with the quartiles and the segment count, so two runs can be compared with
// their own spread in view.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func summarize(v []float64, unit string) sample {
	s := sortedCopy(v)
	return sample{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// pctWorse is how much worse, in percent of off, the traced passes ran.
func pctWorse(off, on []float64) float64 {
	if len(off) == 0 || len(on) == 0 {
		return 0
	}
	mo := median(off)
	if mo == 0 {
		return 0
	}
	return (mo - median(on)) / mo * 100
}

func p99(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sortedCopy(v), 0.99)
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

// meanNs is the mean of v, 0 when empty.
func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}
