// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, min/max, standard deviation,
// percentiles, and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// GeoMean returns the geometric mean of vals, the conventional aggregate
// for normalized performance. Values must be positive; non-positive values
// make the result 0.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// Percentile returns the p-quantile (0 <= p <= 1) of vals using linear
// interpolation between order statistics. It copies and sorts internally.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// QuantileSorted reads quantile q from an ascending-sorted sample by
// nearest rank. Unlike Percentile it neither copies nor interpolates:
// the result is always an element of the sample, and an empty sample
// yields NaN. The population layer's Vcc-min quantiles and the colstore
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

// Histogram is a fixed-width bucketing of a sample over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	Total  int
}

// NewHistogram buckets vals into n equal-width bins spanning [lo, hi).
func NewHistogram(vals []float64, lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) is empty", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	width := (hi - lo) / float64(n)
	for _, v := range vals {
		h.Total++
		switch {
		case v < lo:
			h.Under++
		case v >= hi:
			h.Over++
		default:
			idx := int((v - lo) / width)
			if idx >= n { // guard float rounding at the upper edge
				idx = n - 1
			}
			h.Counts[idx]++
		}
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + width*(float64(i)+0.5)
}

// Fraction returns bin i's share of the total sample.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}
