package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min,Max = %v,%v want 2,9", s.Min, s.Max)
	}
	want := math.Sqrt(32.0 / 7.0) // sample stddev
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 || s.StdDev != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestMinMaxMeanProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		if len(vals) == 0 {
			return Min(vals) == 0 && Max(vals) == 0 && Mean(vals) == 0
		}
		mn, mx, mean := Min(vals), Max(vals), Mean(vals)
		return mn <= mx && mean >= mn-1e-9 && mean <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileRank(t *testing.T) {
	for n := 1; n <= 1000; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			i := QuantileRank(n, q)
			if got := QuantileSorted(sorted, q); got != sorted[i] {
				t.Fatalf("n=%d q=%v: QuantileSorted %v, element at QuantileRank %d is %v", n, q, got, i, sorted[i])
			}
			k := 1
			for k < n && float64(k) < q*float64(n) {
				k++
			}
			if i != k-1 {
				t.Fatalf("n=%d q=%v: QuantileRank %d, smallest rank covering q is index %d", n, q, i, k-1)
			}
		}
	}
}
