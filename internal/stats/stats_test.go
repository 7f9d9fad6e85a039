package stats

import (
	"math"
	"math/rand"
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

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if g := GeoMean([]float64{0.5, 2}); math.Abs(g-1) > 1e-12 {
		t.Errorf("GeoMean(0.5,2) = %v, want 1", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("GeoMean with zero = %v, want 0", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
}

func TestGeoMeanLeqArithMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = 0.1 + rng.Float64()
		}
		if GeoMean(vals) > Mean(vals)+1e-12 {
			t.Fatalf("AM-GM violated: geo %v > arith %v", GeoMean(vals), Mean(vals))
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Must not mutate the input.
	orig := []float64{3, 1, 2}
	Percentile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("Percentile mutated input: %v", orig)
	}
}

func TestHistogram(t *testing.T) {
	vals := []float64{-1, 0, 0.1, 0.5, 0.5, 0.99, 1.0, 2.0}
	h, err := NewHistogram(vals, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2 (1.0 and 2.0)", h.Over)
	}
	wantCounts := []int{2, 1, 2, 1} // [0,.25): 0,0.1; [.25,.5): none... recompute
	// bins: [0,0.25): {0, 0.1} = 2; [0.25,0.5): {} = 0; [0.5,0.75): {0.5,0.5} = 2; [0.75,1): {0.99} = 1
	wantCounts = []int{2, 0, 2, 1}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total != len(vals) {
		t.Errorf("Total = %d, want %d", h.Total, len(vals))
	}
	if c := h.BinCenter(0); math.Abs(c-0.125) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 0.125", c)
	}
	if f := h.Fraction(0); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("Fraction(0) = %v, want 0.25", f)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewHistogram(nil, 1, 1, 4); err == nil {
		t.Error("accepted empty range")
	}
}

func TestHistogramConservesSamples(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		h, err := NewHistogram(vals, -10, 10, 7)
		if err != nil {
			return false
		}
		inBins := 0
		for _, c := range h.Counts {
			inBins += c
		}
		return inBins+h.Under+h.Over == len(vals) && h.Total == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantileRank pins the nearest-rank index two ways: QuantileSorted
// must read exactly the element QuantileRank names, and that index must
// be the smallest rank k (1-based) with k ≥ q·n, found by counting up.
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
