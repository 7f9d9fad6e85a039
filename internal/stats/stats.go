// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, min/max, standard deviation and
// nearest-rank quantiles.
package stats

import (
	"fmt"
	"math"
)

// Summary condenses a sample of float64 values.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary of vals. An empty sample yields a zero
// Summary with N=0.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals), Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f min=%.4f max=%.4f sd=%.4f", s.N, s.Mean, s.Min, s.Max, s.StdDev)
}

// Mean returns the arithmetic mean of vals (0 for an empty slice).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Min returns the minimum of vals (0 for an empty slice).
func Min(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of vals (0 for an empty slice).
func Max(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// QuantileSorted reads quantile q from an ascending-sorted sample by
// nearest rank. It neither copies nor interpolates: the result is
// always an element of the sample, and an empty sample yields NaN. The population layer's Vcc-min quantiles and the colstore
// query aggregates both funnel through it, so "p99" means the same
// order statistic everywhere.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[QuantileRank(len(sorted), q)]
}

// QuantileRank is the index QuantileSorted reads for quantile q of an
// ascending sample of n > 0 values: the nearest rank ceil(q·n), counted
// from zero and clamped to [0, n-1]. Callers that hold a sample in
// another form (sorted keys, value counts) read the same order
// statistic through it.
func QuantileRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
