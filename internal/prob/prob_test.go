package prob

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	refBlocks        = 512 // d for the 32KB 64B/block reference cache
	refCellsPerBlock = 537 // k = 512 data + 24 tag + 1 valid
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{8, 0, 1}, {8, 8, 1}, {8, 1, 8}, {8, 4, 70}, {8, 5, 56},
		{10, 3, 120}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if math.Abs(got-c.want) > c.want*1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose out of range should be -Inf")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 1e-4, 0.03, 0.5, 0.97, 1} {
		for _, n := range []int{1, 8, 64, 512} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomPMF(n, k, p)
			}
			approx(t, "sum of PMF", sum, 1, 1e-9)
		}
	}
}

func TestBinomTailMatchesDirectSum(t *testing.T) {
	f := func(rawN, rawK uint8, rawP float64) bool {
		n := int(rawN)%100 + 1
		kMin := int(rawK) % (n + 2)
		p := math.Abs(math.Mod(rawP, 1))
		direct := 0.0
		for k := kMin; k <= n; k++ {
			direct += BinomPMF(n, k, p)
		}
		return math.Abs(BinomTailAtLeast(n, kMin, p)-direct) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEq1PaperExample(t *testing.T) {
	// "If 1 out of 1000 cells are faulty, there will be 275 faulty cells
	// that, according to Eq. 1, are expected to occur in 213 distinct
	// blocks."
	u := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, 275)
	approx(t, "Eq.1 u(275)", u, 213, 1.0)
}

func TestEq1Extremes(t *testing.T) {
	if got := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, 0); got != 0 {
		t.Errorf("u(0) = %v, want 0", got)
	}
	total := refBlocks * refCellsPerBlock
	if got := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, total); got != refBlocks {
		t.Errorf("u(all) = %v, want %d", got, refBlocks)
	}
	// One fault lands in exactly one block.
	approx(t, "u(1)", MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, 1), 1, 1e-9)
}

func TestEq1Monotone(t *testing.T) {
	prev := 0.0
	for n := 0; n <= 4000; n += 50 {
		u := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, n)
		if u < prev-1e-9 {
			t.Fatalf("Eq.1 not monotone at n=%d: %v < %v", n, u, prev)
		}
		if u > refBlocks {
			t.Fatalf("Eq.1 exceeded d at n=%d: %v", n, u)
		}
		prev = u
	}
}

func TestEq2ApproximatesEq1(t *testing.T) {
	// "We found this to be an accurate approximation for all cache
	// configurations we examined."
	for _, pfail := range []float64{1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2} {
		n := int(math.Round(pfail * float64(refBlocks*refCellsPerBlock)))
		exact := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, n) / refBlocks
		appr := MeanFaultyBlockFraction(refCellsPerBlock, pfail)
		if math.Abs(exact-appr) > 0.01 {
			t.Errorf("pfail=%v: Eq.1 %v vs Eq.2 %v differ by more than 1pp", pfail, exact, appr)
		}
	}
}

func TestFaultsIncreasinglyLandInFaultyBlocks(t *testing.T) {
	// The key lesson of the paper: the marginal number of newly-faulty
	// blocks per added fault decreases as faults accumulate.
	prevDelta := math.Inf(1)
	for n := 100; n <= 3200; n *= 2 {
		delta := MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, n+100) -
			MeanFaultyBlocksExact(refBlocks, refCellsPerBlock, n)
		if delta > prevDelta+1e-9 {
			t.Fatalf("marginal faulty blocks grew at n=%d: %v > %v", n, delta, prevDelta)
		}
		prevDelta = delta
	}
}

func TestBlockDisableCapacityAtReferencePoint(t *testing.T) {
	// Paper: mean 58% capacity at pfail = 0.001, σ ≈ 2pp.
	mean, std := CapacityMeanStd(refBlocks, refCellsPerBlock, 0.001)
	approx(t, "capacity mean", mean, 0.58, 0.01)
	approx(t, "capacity std", std, 0.02, 0.005)
}

func TestCapacityMoreThanHalfVirtuallyAlways(t *testing.T) {
	// Paper: "there is a 99.9% probability for a block-disable cache to
	// have more than 50% capacity" at pfail=0.001.
	p := CapacityAtLeast(refBlocks, refCellsPerBlock, 0.001, 0.5)
	if p < 0.999 {
		t.Errorf("P[capacity >= 50%%] = %v, want >= 0.999", p)
	}
}

func TestBreakEvenPfail(t *testing.T) {
	// Paper: "block-disabling offers more than half cache capacity when
	// pfail is less than 0.0013".
	if c := ExpectedCapacity(refCellsPerBlock, 0.0012); c <= 0.5 {
		t.Errorf("capacity(0.0012) = %v, want > 0.5", c)
	}
	if c := ExpectedCapacity(refCellsPerBlock, 0.0014); c >= 0.5 {
		t.Errorf("capacity(0.0014) = %v, want < 0.5", c)
	}
}

func TestCapacityPMFShape(t *testing.T) {
	pmf := CapacityPMF(refBlocks, refCellsPerBlock, 0.001)
	if len(pmf) != refBlocks+1 {
		t.Fatalf("PMF has %d entries, want %d", len(pmf), refBlocks+1)
	}
	sum, mean := 0.0, 0.0
	for x, p := range pmf {
		if p < 0 {
			t.Fatalf("negative probability at x=%d: %v", x, p)
		}
		sum += p
		mean += float64(x) * p
	}
	approx(t, "PMF total", sum, 1, 1e-9)
	wantMean, _ := CapacityMeanStd(refBlocks, refCellsPerBlock, 0.001)
	approx(t, "PMF mean", mean/refBlocks, wantMean, 1e-9)
}

func TestWholeCacheFailureFig5Anchors(t *testing.T) {
	// Paper: "when pfail is 0.001 the probability is small, almost 1 in
	// 1000 caches are unfit. But, when pfail grows to 0.0015 the cache
	// failure probability increases by a factor of 10 to 1 out of 100."
	p1 := WordDisableWholeCacheFailProb(refBlocks, 64, 32, 8, 0.001)
	p2 := WordDisableWholeCacheFailProb(refBlocks, 64, 32, 8, 0.0015)
	if p1 < 5e-4 || p1 > 5e-3 {
		t.Errorf("pwcf(0.001) = %v, want ≈1e-3", p1)
	}
	if p2 < 5e-3 || p2 > 5e-2 {
		t.Errorf("pwcf(0.0015) = %v, want ≈1e-2", p2)
	}
	if ratio := p2 / p1; ratio < 4 || ratio > 25 {
		t.Errorf("pwcf ratio = %v, want roughly 10x growth", ratio)
	}
}

func TestWholeCacheFailureMonotone(t *testing.T) {
	prev := -1.0
	for pf := 0.0; pf <= 0.002; pf += 0.00005 {
		p := WordDisableWholeCacheFailProb(refBlocks, 64, 32, 8, pf)
		if p < prev-1e-12 {
			t.Fatalf("pwcf not monotone at pfail=%v", pf)
		}
		if p < 0 || p > 1 {
			t.Fatalf("pwcf out of range at pfail=%v: %v", pf, p)
		}
		prev = p
	}
}

func TestFig6BlockSizeOrdering(t *testing.T) {
	// Smaller blocks mean higher capacity at any pfail > 0.
	for _, pf := range []float64{5e-4, 1e-3, 2e-3, 5e-3} {
		k32 := 32*8 + 25 + 1 // 32B block in a 32KB cache: 7-bit index => 25-bit tag... tag depends on geometry
		k64 := 64*8 + 24 + 1 // reference
		k128 := 128*8 + 23 + 1
		c32 := ExpectedCapacity(k32, pf)
		c64 := ExpectedCapacity(k64, pf)
		c128 := ExpectedCapacity(k128, pf)
		if !(c32 > c64 && c64 > c128) {
			t.Errorf("pfail=%v: capacity ordering violated: 32B=%v 64B=%v 128B=%v", pf, c32, c64, c128)
		}
	}
}

func TestIncrementalWDShape(t *testing.T) {
	// Fig. 7: starts above 50% (fault-free pairs run at full capacity),
	// saturates toward 50% as pairs accumulate faults, then dips below 50%
	// at high pfail as pairs get disabled. Never exhibits whole-cache
	// failure.
	c0 := IncrementalWDCapacity(512, 8, 32, 0)
	approx(t, "incWD capacity at pfail=0", c0, 1, 1e-12)

	cLow := IncrementalWDCapacity(512, 8, 32, 0.0005)
	if cLow <= 0.5 || cLow >= 1 {
		t.Errorf("incWD capacity(0.0005) = %v, want in (0.5, 1)", cLow)
	}
	cMid := IncrementalWDCapacity(512, 8, 32, 0.004)
	approx(t, "incWD capacity saturates near 0.5", cMid, 0.5, 0.02)
	cHigh := IncrementalWDCapacity(512, 8, 32, 0.02)
	if cHigh >= cMid {
		t.Errorf("incWD capacity should fall below saturation at high pfail: %v >= %v", cHigh, cMid)
	}
}

func TestIncrementalWDMonotoneDecreasing(t *testing.T) {
	prev := 1.1
	for pf := 0.0; pf <= 0.01; pf += 0.00025 {
		c := IncrementalWDCapacity(512, 8, 32, pf)
		if c > prev+1e-9 {
			t.Fatalf("incremental WD capacity increased at pfail=%v: %v > %v", pf, c, prev)
		}
		prev = c
	}
}

func TestBlockFaultProbProperties(t *testing.T) {
	f := func(rawK uint8, rawP float64) bool {
		k := int(rawK)%1000 + 1
		p := math.Abs(math.Mod(rawP, 1))
		pbf := BlockFaultProb(k, p)
		if pbf < 0 || pbf > 1 {
			return false
		}
		// More cells, more likely faulty.
		return BlockFaultProb(k+100, p) >= pbf-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSweep(t *testing.T) {
	s := Sweep("x^2", 0, 2, 4, func(x float64) float64 { return x * x })
	if s.Len() != 5 || len(s.Y) != 5 {
		t.Fatalf("Len = %d with %d y values, want 5 and 5", s.Len(), len(s.Y))
	}
	approx(t, "mid sample", s.Y[2], 1, 1e-12)
	approx(t, "end sample", s.Y[4], 4, 1e-12)
}
