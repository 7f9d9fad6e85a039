package faults

import (
	"math"
	"testing"
)

// exactGap is the expression GapSampler.Skip must equal.
func exactGap(u, logQ float64) int {
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / logQ)
}

// checkGap fails t unless g.Skip(u) equals the exact gap, for any u in
// [0, 1); it ignores u outside that range.
func checkGap(t *testing.T, pfail float64, g GapSampler, u float64) {
	t.Helper()
	if !(u >= 0 && u < 1) {
		return
	}
	if got, want := g.Skip(u), exactGap(u, g.logQ); got != want {
		t.Fatalf("pfail=%v u=%v (%#x): Skip = %d, int(math.Log(u)/logQ) = %d",
			pfail, u, math.Float64bits(u), got, want)
	}
}

// checkGapBoundaries checks u at the gap boundaries exp(k·logQ) for gaps
// k up to kMax: the boundary itself, its float neighbours and a
// relative nudge of 1e-12 either way, where the table log cannot
// settle the integer part and Skip must fall back.
func checkGapBoundaries(t *testing.T, pfail float64, g GapSampler, k int) {
	t.Helper()
	b := math.Exp(float64(k) * g.logQ)
	for _, u := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 1), b * (1 - 1e-12), b * (1 + 1e-12)} {
		checkGap(t, pfail, g, u)
	}
}

// gapPfails spans pfail from 1e-9 to 1−1e-6 log-uniformly, plus the
// fleet's and the paper's regime and the saturated GenerateClustered
// rate of 1.
func gapPfails() []float64 {
	ps := []float64{1e-9, 1e-6, 1e-4, 1e-3, 9e-4, 0.5, 1 - 1e-6, 1}
	for i := 0; i <= 40; i++ {
		lo, hi := math.Log(1e-9), math.Log(1-1e-6)
		ps = append(ps, math.Exp(lo+(hi-lo)*float64(i)/40))
	}
	return ps
}

// tabEdges returns, for binade e, the 256 edges 2^e·(1+j/256) of
// tabLog's mantissa intervals and both float neighbours of each, where
// r = m·inv − 1 reaches its extremes.
func tabEdges(e int) []float64 {
	us := make([]float64, 0, 3*256)
	for j := 0; j < 256; j++ {
		u := math.Ldexp(1+float64(j)/256, e)
		us = append(us, math.Nextafter(u, 0), u, math.Nextafter(u, 1))
	}
	return us
}

// TestTabLogAccuracy: the table log stays within tabLogMaxErr of
// math.Log on uniform draws, on every interval edge and its float
// neighbours in every binade from 2⁻¹⁰⁰⁰ up, and at the largest
// mantissas — the bound GapSampler's exactness rests on.
func TestTabLogAccuracy(t *testing.T) {
	worst := 0.0
	check := func(u float64) {
		t.Helper()
		if u < 0x1p-1000 || u >= 1 {
			return
		}
		diff := math.Abs(tabLog(u) - math.Log(u))
		if !(diff <= tabLogMaxErr) {
			t.Fatalf("tabLog(%g) (%#x) = %g, math.Log = %g (off by %g, bound %g)",
				u, math.Float64bits(u), tabLog(u), math.Log(u), diff, tabLogMaxErr)
		}
		worst = max(worst, diff)
	}
	st := sparseStream{state: 12345}
	for i := 0; i < 200_000; i++ {
		check(st.float64())
	}
	top := math.Nextafter(2, 0) // the largest mantissa
	for _, u := range []float64{0x1p-53, 0x1p-63, 0.5, 0.9999999, 1 - 0x1p-53, top / 4, 0x1p-1000, 0x1p-1000 * 1.5} {
		check(u)
	}
	for e := -1000; e < 0; e++ {
		for _, u := range tabEdges(e) {
			check(u)
		}
		check(math.Ldexp(top, e-1))
		check(math.Ldexp(math.Nextafter(top, 0), e-1))
	}
	t.Logf("worst |tabLog − math.Log| %.3g (bound %g)", worst, tabLogMaxErr)
}

// TestGapExact: Skip equals int(math.Log(u)/logQ) on uniform draws, at
// u = 0, 2⁻⁶³, 1−2⁻⁵³, the ends and middle of every binade and the
// table log's interval edges in a spread of binades, and on the gap
// boundaries, across pfail from 1e-9 to 1.
func TestGapExact(t *testing.T) {
	st := sparseStream{state: 99}
	top := math.Nextafter(2, 0)
	var edges []float64
	for _, e := range []int{-1, -2, -3, -9, -30, -53, -64, -500, -1000} {
		edges = append(edges, tabEdges(e)...)
	}
	for _, pfail := range gapPfails() {
		g := NewGapSampler(pfail)
		for _, u := range []float64{0, 0x1p-63, 1 - 0x1p-53, math.SmallestNonzeroFloat64, 0x1p-1000, math.Nextafter(0x1p-1000, 0)} {
			checkGap(t, pfail, g, u)
		}
		for e := -1074; e < 0; e++ {
			checkGap(t, pfail, g, math.Ldexp(1, e))
			checkGap(t, pfail, g, math.Ldexp(top, e-1))
			checkGap(t, pfail, g, math.Ldexp(1.4142135623730951, e))
		}
		for _, u := range edges {
			checkGap(t, pfail, g, u)
		}
		for i := 0; i < 20_000; i++ {
			checkGap(t, pfail, g, st.float64())
		}
		// Boundaries for the first gaps, then spread geometrically out
		// to where exp(k·logQ) leaves the normal range.
		kMax := -1000 / g.logQ
		for k := 0; k < 64; k++ {
			checkGapBoundaries(t, pfail, g, k)
		}
		for k := 64.0; k < kMax && k < 1<<62; k *= 1.01 {
			checkGapBoundaries(t, pfail, g, int(k))
		}
	}
}

// TestGapSamplerSettlesMostDraws: the exactness check above would pass
// with a guard that always fell back to math.Log; at the fleet's and the
// paper's pfail, the table log must settle almost every draw itself.
func TestGapSamplerSettlesMostDraws(t *testing.T) {
	st := sparseStream{state: 5}
	for _, pfail := range []float64{1e-4, 1e-3} {
		g := NewGapSampler(pfail)
		fallbacks := 0
		const n = 100_000
		for i := 0; i < n; i++ {
			u := st.float64()
			if u < 0x1p-1000 {
				continue
			}
			x := tabLog(u) * g.invLogQ
			fr := x - math.Trunc(x)
			if s := g.slack + x*0x1p-40; !(fr > s && fr < 1-s) {
				fallbacks++
			}
		}
		// The fallback band is 2·slack wide per unit of gap.
		if limit := int(4*g.slack*n) + 10; fallbacks > limit {
			t.Errorf("pfail=%v: %d of %d draws fell back to math.Log (slack %g), want at most %d",
				pfail, fallbacks, n, g.slack, limit)
		}
	}
}

// FuzzGapExact: for a log-uniform pfail in [1e-9, 1−1e-6], Skip equals
// the exact gap on a uniform draw, on an arbitrary float64 in [0, 1)
// (subnormals included) and on the gap boundary exp(k·logQ).
func FuzzGapExact(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0))
	f.Add(uint64(1)<<63, uint64(0x3fefffffffffffff), uint32(1))
	f.Add(^uint64(0), uint64(1), uint32(1000))
	f.Add(uint64(12345)<<40, uint64(0x3c00000000000000), uint32(77))
	f.Fuzz(func(t *testing.T, pfRaw, uRaw uint64, k uint32) {
		lo, hi := math.Log(1e-9), math.Log(1-1e-6)
		pfail := math.Exp(lo + (hi-lo)*float64(pfRaw>>11)*0x1p-53)
		g := NewGapSampler(pfail)
		checkGap(t, pfail, g, float64(uRaw>>11)*0x1p-53)
		checkGap(t, pfail, g, math.Float64frombits(uRaw))
		checkGapBoundaries(t, pfail, g, int(k))
	})
}

// BenchmarkGapSkip times one gap at the fleet's floor pfail through the
// guarded table log and through math.Log, over the same uniforms.
func BenchmarkGapSkip(b *testing.B) {
	g := NewGapSampler(9e-4)
	us := make([]float64, 4096)
	st := sparseStream{state: 1}
	for i := range us {
		us[i] = st.float64()
	}
	b.Run("sampler", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += g.Skip(us[i&4095])
		}
		_ = sum
	})
	b.Run("mathlog", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += exactGap(us[i&4095], g.logQ)
		}
		_ = sum
	})
}
