package faults

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"vccmin/internal/geom"
)

// ---- Correctness and determinism ----

// TestSparseDeterministicByteIdentical: the sparse stream is a pure
// function of the seed — repeated draws are byte-identical end to end,
// including through serialization.
func TestSparseDeterministicByteIdentical(t *testing.T) {
	g := geom.MustNew(32*1024, 8, 64)
	for _, seed := range []int64{0, 1, -7, 42, 1 << 40} {
		a := GenerateMapSparse(g, 32, 0.001, seed)
		b := GenerateMapSparse(g, 32, 0.001, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: repeated sparse draws differ structurally", seed)
		}
		var ab, bb bytes.Buffer
		if err := a.Write(&ab); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("seed %d: repeated sparse draws serialize differently", seed)
		}
	}
}

// TestSparseSeedsDecorrelate: different seeds give different maps.
func TestSparseSeedsDecorrelate(t *testing.T) {
	g := geom.MustNew(32*1024, 8, 64)
	a := GenerateMapSparse(g, 32, 0.001, 1)
	b := GenerateMapSparse(g, 32, 0.001, 2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 drew identical maps")
	}
}

// TestSparseMapMatchesPairISide: the one-map generator equals the I side
// of the pair generator at the same seed.
func TestSparseMapMatchesPairISide(t *testing.T) {
	ig := geom.MustNew(32*1024, 8, 64)
	dg := geom.MustNew(16*1024, 4, 64)
	m := GenerateMapSparse(ig, 32, 0.001, 42)
	p := GeneratePairSparse(ig, dg, 32, 0.001, 42)
	if !reflect.DeepEqual(m, p.I) {
		t.Fatal("GenerateMapSparse diverges from GeneratePairSparse's I side")
	}
	if p.D.Geom != dg {
		t.Fatalf("pair D geometry %v, want %v", p.D.Geom, dg)
	}
}

// TestSparseEdgeProbabilities: pfail <= 0 draws nothing, pfail >= 1
// everything — exactly as Generate.
func TestSparseEdgeProbabilities(t *testing.T) {
	g := geom.MustNew(8*1024, 4, 64)
	if m := GenerateMapSparse(g, 32, 0, 1); m.Total != 0 {
		t.Fatalf("pfail=0 drew %d faults", m.Total)
	}
	if m := GenerateMapSparse(g, 32, 1, 1); m.Total != g.TotalCells() {
		t.Fatalf("pfail=1 drew %d faults, want %d", m.Total, g.TotalCells())
	}
}

// TestSamplerReuseEqualsFresh: the reuse path must be observationally
// identical to a fresh allocation, regardless of what the buffer held —
// including after a high-pfail draw that dirtied every block.
func TestSamplerReuseEqualsFresh(t *testing.T) {
	g := geom.MustNew(32*1024, 8, 64)
	var s Sampler
	s.Draw(g, 32, 0.01, 999) // dirty the buffer densely
	for _, seed := range []int64{3, 4, 5} {
		fresh := GenerateMapSparse(g, 32, 0.001, seed)
		got := s.Draw(g, 32, 0.001, seed)
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("seed %d: reused sampler draw differs from fresh draw", seed)
		}
	}
	// A pfail=1 draw dirties every block; the next draw must still reset.
	s.Draw(g, 32, 1, 1)
	if got := s.Draw(g, 32, 0.001, 6); !reflect.DeepEqual(got, GenerateMapSparse(g, 32, 0.001, 6)) {
		t.Fatal("sampler draw after a saturated map differs from fresh draw")
	}
	// And so must a pfail=0 draw (nothing to clear, nothing drawn).
	if got := s.Draw(g, 32, 0, 1); got.Total != 0 {
		t.Fatalf("pfail=0 sampler draw has %d faults", got.Total)
	}
}

// TestSamplerMismatchedBufferReallocates: a buffer with a different
// geometry or word size must not be reused in place.
func TestSamplerMismatchedBufferReallocates(t *testing.T) {
	g1 := geom.MustNew(32*1024, 8, 64)
	g2 := geom.MustNew(16*1024, 4, 64)
	var s Sampler
	buf := s.Draw(g1, 32, 0.001, 1)
	got := s.Draw(g2, 32, 0.001, 1)
	if got == buf {
		t.Fatal("reused a buffer with the wrong geometry")
	}
	if !reflect.DeepEqual(got, GenerateMapSparse(g2, 32, 0.001, 1)) {
		t.Fatal("reallocated draw differs from fresh draw")
	}
	buf = got
	if got = s.Draw(g2, 16, 0.001, 1); got == buf {
		t.Fatal("reused a buffer with the wrong word size")
	}
}

// TestFastLogAccuracy: the polynomial log feeding the geometric samplers
// stays within fastLogMaxErr of math.Log across the uniform draw's full
// range and at the exponent extremes GapSampler trusts it over — the
// bound GapSampler's exactness rests on.
func TestFastLogAccuracy(t *testing.T) {
	check := func(u float64) {
		t.Helper()
		if diff := math.Abs(fastLog(u) - math.Log(u)); !(diff <= fastLogMaxErr) {
			t.Fatalf("fastLog(%g) = %g, math.Log = %g (off by %g, bound %g)", u, fastLog(u), math.Log(u), diff, fastLogMaxErr)
		}
	}
	var st sparseStream
	st.state = 12345
	for i := 0; i < 100_000; i++ {
		u := st.float64()
		if u == 0 {
			u = 0x1p-53
		}
		check(u)
	}
	top := math.Nextafter(2, 0) // the largest mantissa: z nearest 1/3
	for _, u := range []float64{
		0x1p-53, 0x1p-63, 0.5, 0.9999999, 1 - 0x1p-53, top / 4,
		0x1p-1000, top * 0x1p-1001, 0x1p-1022, top * 0x1p-1023, 0x1p-1000 * 1.5,
	} {
		check(u)
	}
	for e := -1022; e < 0; e++ {
		check(math.Ldexp(1, e))
		check(math.Ldexp(top, e-1))
		check(math.Ldexp(1.4142135623730951, e))
	}
}

// ---- Statistical properties ----

// sparseCounts aggregates fault statistics over many seeds.
type sparseCounts struct {
	maps         int
	cells        int64 // total faulty cells
	faultyBlocks int64
	faultyWords  int64
}

func collectSparse(g geom.Geometry, wordBits int, pfail float64, seeds int) sparseCounts {
	var c sparseCounts
	var sampler Sampler
	for s := 0; s < seeds; s++ {
		m := sampler.Draw(g, wordBits, pfail, DeriveSeed(int64(s), "sparse-stat"))
		c.maps++
		c.cells += int64(m.Total)
		for _, b := range m.Blocks {
			if b.Faulty() {
				c.faultyBlocks++
			}
			c.faultyWords += int64(bits.OnesCount64(b.WordMask))
		}
	}
	return c
}

// checkBinomial verifies an observed count against a Binomial(n, p) total
// within sigmas standard deviations.
func checkBinomial(t *testing.T, label string, observed int64, n int64, p float64, sigmas float64) {
	t.Helper()
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if diff := math.Abs(float64(observed) - mean); diff > sigmas*sd {
		t.Errorf("%s: observed %d, expected %.1f ± %.1f (%.0fσ allowed, off by %.1fσ)",
			label, observed, mean, sigmas*sd, sigmas, diff/sd)
	}
}

// TestSparseMatchesBernoulliStatistics: over many seeds the sparse
// generator's faulty-cell, faulty-word and faulty-block counts match the
// per-cell Bernoulli model's closed forms — the same marginals Generate
// samples. Tolerances are 5σ of the corresponding binomial, so
// a correct implementation fails with probability < 1e-6.
func TestSparseMatchesBernoulliStatistics(t *testing.T) {
	g := geom.MustNew(8*1024, 4, 64)
	const (
		wordBits = 32
		pfail    = 0.002
		seeds    = 400
		sigmas   = 5
	)
	c := collectSparse(g, wordBits, pfail, seeds)

	totalCells := int64(g.TotalCells()) * int64(seeds)
	checkBinomial(t, "faulty cells", c.cells, totalCells, pfail, sigmas)

	pBlock := 1 - math.Pow(1-pfail, float64(g.CellsPerBlock()))
	totalBlocks := int64(g.Blocks()) * int64(seeds)
	checkBinomial(t, "faulty blocks", c.faultyBlocks, totalBlocks, pBlock, sigmas)

	pWord := 1 - math.Pow(1-pfail, wordBits)
	totalWords := int64(g.Blocks()) * int64(g.DataBits()/wordBits) * int64(seeds)
	checkBinomial(t, "faulty data words", c.faultyWords, totalWords, pWord, sigmas)
}

// TestSparseAgreesWithDense: the sparse generator and Generate on math/rand
// estimate the same distribution — their mean faulty-cell counts over
// disjoint seed sets agree within joint sampling noise.
func TestSparseAgreesWithDense(t *testing.T) {
	g := geom.MustNew(8*1024, 4, 64)
	const (
		pfail = 0.002
		seeds = 300
	)
	var dense int64
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(DeriveSeed(int64(s), "dense-stat")))
		dense += int64(Generate(g, 32, pfail, rng).Total)
	}
	sparse := collectSparse(g, 32, pfail, seeds).cells
	n := float64(g.TotalCells()) * seeds
	sd := math.Sqrt(2 * n * pfail * (1 - pfail)) // variance of the difference
	if diff := math.Abs(float64(dense - sparse)); diff > 6*sd {
		t.Errorf("dense drew %d faults, sparse %d; |diff| %.0f exceeds 6σ = %.0f",
			dense, sparse, diff, 6*sd)
	}
}

// ---- Benchmarks: the fast path's raison d'être ----

// benchGeoms are the two array scales the Monte Carlo layers draw at: the
// paper's reference L1 and the future-work L2.
var benchGeoms = []struct {
	name string
	g    geom.Geometry
}{
	{"L1-32K", geom.MustNew(32*1024, 8, 64)},
	{"L2-2M", geom.MustNew(2*1024*1024, 8, 64)},
}

func BenchmarkGenerateMapSparse(b *testing.B) {
	for _, bg := range benchGeoms {
		for _, pfail := range []float64{1e-4, 1e-3} {
			b.Run(fmt.Sprintf("%s/pfail=%g", bg.name, pfail), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GenerateMapSparse(bg.g, 32, pfail, int64(i))
				}
			})
		}
	}
}

func BenchmarkGenerateMapSparseReuse(b *testing.B) {
	for _, bg := range benchGeoms {
		for _, pfail := range []float64{1e-4, 1e-3} {
			b.Run(fmt.Sprintf("%s/pfail=%g", bg.name, pfail), func(b *testing.B) {
				var s Sampler
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Draw(bg.g, 32, pfail, int64(i))
				}
			})
		}
	}
}
