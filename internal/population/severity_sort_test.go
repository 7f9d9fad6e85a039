package population

// The prober's O(F) bucket sort of the latent population held equal,
// element for element, to the comparison sort it replaced:
// slices.SortFunc(flt, compareFaults). Because (sev, cell) is a strict
// total order the sorted sequence is unique, so equality here means
// the walk and the predictor see exactly the pre-bucket-sort order.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vccmin/internal/sim"
)

// sortOracle returns flt ordered by the frozen comparison sort.
func sortOracle(flt []latentFault) []latentFault {
	want := slices.Clone(flt)
	slices.SortFunc(want, compareFaults)
	return want
}

// checkSeveritySort runs the prober's sort over flt (in the given
// input order) and requires the oracle's order.
func checkSeveritySort(t testing.TB, p *prober, name string, flt []latentFault) {
	t.Helper()
	want := sortOracle(flt)
	p.flt = append(p.flt[:0], flt...)
	p.sortBySeverity()
	if !slices.Equal(p.flt, want) {
		for i := range want {
			if p.flt[i] != want[i] {
				t.Fatalf("%s: n=%d: index %d is %+v, oracle %+v", name, len(want), i, p.flt[i], want[i])
			}
		}
	}
}

// drawOrder returns die d's latent population in draw's emission
// order (ascending cell), as the frozen oracle prober draws it.
func drawOrder(o *oracleProber, d int) []latentFault {
	o.draw(d)
	flt := make([]latentFault, len(o.cells))
	for i, c := range o.cells {
		flt[i] = latentFault{sev: o.sev[i], cell: c}
	}
	return flt
}

// TestDifferentialSeveritySort holds draw's bucket-sorted population
// equal to the comparison sort of the same draw, over the differential
// spec battery, saturated and empty draws, and hand-made populations
// aimed at the bucket arithmetic.
func TestDifferentialSeveritySort(t *testing.T) {
	checkDraws := func(t *testing.T, spec FleetSpec, dies []int) {
		t.Helper()
		p := newProber(spec)
		o := newOracleProber(spec)
		for _, d := range dies {
			want := sortOracle(drawOrder(o, d))
			p.draw(d)
			if !slices.Equal(p.flt, want) {
				t.Fatalf("seed %d die %d: bucket-sorted population (%d faults) differs from the comparison sort (%d)",
					spec.Seed, d, len(p.flt), len(want))
			}
		}
	}

	t.Run("diffSpecs", func(t *testing.T) {
		for _, spec := range diffSpecs(t) {
			dies := make([]int, spec.Dies)
			for d := range dies {
				dies[d] = d
			}
			checkDraws(t, spec, dies)
		}
	})

	t.Run("saturated", func(t *testing.T) {
		spec := saturatedSpec()
		p := newProber(spec)
		p.draw(0)
		if p.pflr < 1 || len(p.flt) != spec.Geom.TotalCells() {
			t.Fatalf("die 0: pflr %v with %d faults, want the saturated full draw", p.pflr, len(p.flt))
		}
		checkDraws(t, spec, []int{0, spec.DiesPerWafer - 1})
	})

	t.Run("empty", func(t *testing.T) {
		// A nominal pfail so small that the expected population of the
		// whole array at the floor is far below one fault.
		spec := FleetSpec{Seed: 13, Dies: 16}.WithDefaults()
		spec.Model.PfailAtVccMin = 1e-18
		p := newProber(spec)
		for d := 0; d < spec.Dies; d++ {
			p.draw(d)
			if len(p.flt) != 0 {
				t.Fatalf("die %d: drew %d faults, want an empty population", d, len(p.flt))
			}
		}
		checkDraws(t, spec, []int{0, 1, 2})
	})

	t.Run("handmade", func(t *testing.T) {
		p := newProber(FleetSpec{Seed: 1}.WithDefaults())
		top := math.Nextafter(1, 0)
		cases := map[string][]latentFault{
			"n=0":             nil,
			"n=1":             {{sev: 0.5, cell: 3}},
			"n=2 sorted":      {{sev: 0.25, cell: 1}, {sev: 0.75, cell: 2}},
			"n=2 reversed":    {{sev: 0.75, cell: 1}, {sev: 0.25, cell: 2}},
			"n=2 tie":         {{sev: 0.5, cell: 1}, {sev: 0.5, cell: 2}},
			"n=2 tie desc":    {{sev: 0.5, cell: 2}, {sev: 0.5, cell: 1}},
			"equal severity":  {{sev: 0.3, cell: 0}, {sev: 0.7, cell: 1}, {sev: 0.3, cell: 4}, {sev: 0.3, cell: 9}, {sev: 0.7, cell: 10}},
			"top bucket":      {{sev: top, cell: 0}, {sev: 0, cell: 1}, {sev: top, cell: 2}, {sev: 0, cell: 3}, {sev: 0.5, cell: 4}},
			"top n=2":         {{sev: top, cell: 0}, {sev: 0, cell: 1}},
			"all zero":        {{sev: 0, cell: 5}, {sev: 0, cell: 6}, {sev: 0, cell: 7}},
			"all top":         {{sev: top, cell: 5}, {sev: top, cell: 6}, {sev: top, cell: 7}},
			"one bucket":      oneBucketAt(rand.New(rand.NewSource(3)), 200, 0),
			"one bucket tail": oneBucketAt(rand.New(rand.NewSource(4)), 200, 1-1.0/200),
		}
		for name, flt := range cases {
			checkSeveritySort(t, p, name, flt)
		}
	})
}

// oneBucketAt returns n faults whose severities all lie in
// [lo, lo+1/n), so in one bucket of an n-bucket sort (the insertion
// pass's worst case), in random order across ascending cells.
func oneBucketAt(rng *rand.Rand, n int, lo float64) []latentFault {
	flt := make([]latentFault, n)
	for i := range flt {
		flt[i] = latentFault{sev: lo + rng.Float64()/float64(n), cell: int32(i)}
	}
	return flt
}

// FuzzSeveritySort feeds the bucket sort arbitrary severities in [0,1)
// on distinct cells and requires the comparison sort's order. The
// first byte picks the encoding: bit 0 reads 2-byte severities
// (coarse, so ties are common), otherwise 8-byte ones (all 0xff bytes
// give the largest float64 below 1, the last bucket's edge); bit 1
// assigns cells in descending instead of draw's ascending order.
func FuzzSeveritySort(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0xff, 0x80, 0})
	f.Add(append([]byte{0}, slices.Repeat([]byte{0xff}, 32)...))
	f.Add([]byte{3, 1, 2, 1, 2, 1, 2, 0, 9, 0, 9})
	p := newProber(FleetSpec{Seed: 1}.WithDefaults())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		width := 8
		if mode&1 != 0 {
			width = 2
		}
		n := min(len(data)/width, 4096)
		flt := make([]latentFault, n)
		for i := range flt {
			chunk := data[i*width : (i+1)*width]
			var sev float64
			if width == 2 {
				sev = float64(binary.LittleEndian.Uint16(chunk)) / (1 << 16)
			} else {
				sev = float64(binary.LittleEndian.Uint64(chunk)>>11) / (1 << 53)
			}
			cell := int32(i)
			if mode&2 != 0 {
				cell = int32(n - 1 - i)
			}
			flt[i] = latentFault{sev: sev, cell: cell}
		}
		checkSeveritySort(t, p, "fuzz", flt)
	})
}

// TestProberAllocs freezes the prober's buffer reuse: once it has seen
// a die with at least as many latent faults, a draw plus a full grid
// walk allocates nothing — the sort's bucket offsets and swap slice,
// the population and the walk's scratch are all reused.
func TestProberAllocs(t *testing.T) {
	spec := FleetSpec{Seed: 7, Schemes: allSchemes}.WithDefaults()
	p := newProber(spec)
	steps := make([]int, len(spec.Schemes))
	const dies = 64
	for d := 0; d < dies; d++ { // warm-up: sees the largest population
		p.draw(d)
		p.gridSteps(steps)
	}
	d := 0
	allocs := testing.AllocsPerRun(4*dies, func() {
		p.draw(d % dies)
		p.gridSteps(steps)
		d++
	})
	if allocs != 0 {
		t.Fatalf("draw + walk: %v allocs per die, want 0", allocs)
	}
	// The predictor path reuses the same buffers.
	allocs = testing.AllocsPerRun(dies, func() {
		p.draw(d % dies)
		_, _ = p.estimateAndTruth(sim.BlockDisable, DefaultPredictK)
		d++
	})
	if allocs != 0 {
		t.Fatalf("draw + estimate: %v allocs per die, want 0", allocs)
	}
}
