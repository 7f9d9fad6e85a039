package population

// The prober's kill severities held to the frozen oracle's verdicts:
// for every scheme, the oracle must fail on the active set
// {sev <= s*} and pass on every smaller active set ({sev < s*} being
// the largest), with s* = +Inf passing on the whole population and
// s* = -Inf failing on the empty one. The populations are small
// geometries' hand-made and random fault lists and fuzzed ones: ties,
// tag-only faults, odd-way and no-pair geometries, blocks too small
// for a whole subblock or fix group, capacity floors of 0 and 1, and
// saturated draws.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vccmin/internal/geom"
	"vccmin/internal/sim"
)

// killGeoms are the small geometries the kill-severity checks use.
var killGeoms = []geom.Geometry{
	geom.MustNew(1024, 2, 64),  // two subblocks per block
	geom.MustNew(768, 3, 64),   // odd ways: the last way is unpaired
	geom.MustNew(512, 1, 64),   // no way-pairs at all
	geom.MustNew(1024, 4, 32),  // one subblock per block
	geom.MustNew(2048, 2, 128), // four subblocks per block
	geom.MustNew(256, 2, 16),   // no whole subblock: word-disable never fails
	geom.MustNew(16, 2, 1),     // no whole fix group: bit-fix never fails
}

// killSpec is a spec over geometry g with every scheme and the given
// capacity floor (set after defaulting, so 0 stays 0).
func killSpec(g geom.Geometry, floor float64) FleetSpec {
	spec := FleetSpec{Geom: g, Schemes: allSchemes}.WithDefaults()
	spec.CapacityFloor = floor
	return spec
}

// exhaustiveBelow bounds the populations for which every smaller
// active set is evaluated; larger ones (saturated draws) check the
// largest smaller set and the empty one, which every smaller set lies
// between (the oracle's predicates are monotone in the fault set).
const exhaustiveBelow = 256

// checkKill computes the kill severities of flt (ascending distinct
// cells) and holds each to the oracle's verdicts on the active sets
// around it.
func checkKill(t testing.TB, name string, spec FleetSpec, flt []latentFault) {
	t.Helper()
	p := newProber(spec)
	p.flt = append(p.flt[:0], flt...)
	kill := slices.Clone(p.killSeverities(spec.Schemes))
	o := newOracleProber(spec)
	var sevs []float64
	for _, f := range flt {
		o.cells = append(o.cells, f.cell)
		o.sev = append(o.sev, f.sev)
		sevs = append(sevs, f.sev)
	}
	slices.Sort(sevs)
	sevs = slices.Compact(sevs)
	fails := func(scheme sim.Scheme, ratio float64) bool {
		o.activate(ratio)
		return !o.verdict(scheme)
	}
	for k, scheme := range spec.Schemes {
		s := kill[k]
		// A scheme's kill severity must not depend on which others
		// share the pass.
		if alone := p.killSeverity(scheme); alone != s {
			t.Fatalf("%s: %v: kill severity %v alone, %v among %v", name, scheme, alone, s, spec.Schemes)
		}
		if math.IsInf(s, -1) {
			if !fails(scheme, s) {
				t.Fatalf("%s: %v: kill severity -Inf, but the oracle passes fault-free", name, scheme)
			}
			continue
		}
		if !math.IsInf(s, 1) && !fails(scheme, s) {
			t.Fatalf("%s: %v: oracle passes on {sev <= %v} (%d faults)", name, scheme, s, len(flt))
		}
		below := sevs[:0:0]
		for _, v := range sevs {
			if v < s {
				below = append(below, v)
			}
		}
		if len(flt) > exhaustiveBelow && len(below) > 0 {
			below = below[len(below)-1:]
		}
		for _, v := range append(below, math.Inf(-1)) {
			if fails(scheme, v) {
				t.Fatalf("%s: %v: kill severity %v, but the oracle fails on {sev <= %v} (%d faults)",
					name, scheme, s, v, len(flt))
			}
		}
	}
}

// randomPopulation marks each cell of g faulty with probability
// density, in ascending cell order; coarse severities take one of
// eight values, so ties are common.
func randomPopulation(rng *rand.Rand, g geom.Geometry, density float64, coarse bool) []latentFault {
	var flt []latentFault
	for c := 0; c < g.TotalCells(); c++ {
		if rng.Float64() >= density {
			continue
		}
		sev := rng.Float64()
		if coarse {
			sev = float64(rng.Intn(8)) / 8
		}
		flt = append(flt, latentFault{sev: sev, cell: int32(c)})
	}
	return flt
}

// at returns the latent fault at data (or, past DataBits, tag) offset
// off of block b.
func at(g geom.Geometry, b, off int, sev float64) latentFault {
	return latentFault{sev: sev, cell: int32(b*g.CellsPerBlock() + off)}
}

func TestDifferentialKillSeverity(t *testing.T) {
	floors := []float64{0, 0.5, 0.75, 0.9, 1}

	t.Run("handmade", func(t *testing.T) {
		g := killGeoms[0]
		tag := g.DataBits()
		cases := map[string][]latentFault{
			"empty": nil,
			// Five faulty words of subblock 0 at one severity, plus two
			// faulty pairs of fix group 0 tied with them.
			"ties": {at(g, 0, 0, 0.5), at(g, 0, 2, 0.5), at(g, 0, 32, 0.5), at(g, 0, 64, 0.5),
				at(g, 0, 96, 0.5), at(g, 0, 128, 0.5)},
			// A word holding several faults counts once, at its least
			// severity.
			"one word": {at(g, 1, 0, 0.9), at(g, 1, 5, 0.1), at(g, 1, 31, 0.4)},
			// Four faulty words never fail a subblock; the fifth does.
			"fifth word": {at(g, 2, 256, 0.1), at(g, 2, 288, 0.2), at(g, 2, 320, 0.3), at(g, 2, 352, 0.4),
				at(g, 2, 480, 0.95)},
			// Tag and valid cells only: baseline and block-disable see
			// them, the data-array schemes do not.
			"tag only": {at(g, 0, tag, 0.3), at(g, 0, tag+3, 0.2), at(g, 5, tag, 0.7), at(g, 9, g.CellsPerBlock()-1, 0.1)},
			// Both blocks of one way-pair, then a fault in each of
			// the other pairs' blocks.
			"pair": {at(g, 0, 7, 0.6), at(g, 1, 40, 0.2), at(g, 3, 1, 0.3), at(g, 4, 500, 0.4),
				at(g, 7, 100, 0.5), at(g, 8, tag, 0.05), at(g, 11, 9, 0.8), at(g, 12, 300, 0.1), at(g, 15, 0, 0.9)},
			// Every block faulty once, severities descending by block.
			"every block": func() []latentFault {
				var flt []latentFault
				for b := 0; b < g.Blocks(); b++ {
					flt = append(flt, at(g, b, b*31%g.CellsPerBlock(), 1-float64(b+1)/64))
				}
				return flt
			}(),
		}
		for name, flt := range cases {
			for _, gg := range killGeoms {
				// Keep the cells inside the smaller geometries.
				var in []latentFault
				for _, f := range flt {
					if int(f.cell) < gg.TotalCells() {
						in = append(in, f)
					}
				}
				for _, floor := range floors {
					checkKill(t, name, killSpec(gg, floor), in)
				}
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, g := range killGeoms {
			for _, density := range []float64{0.0005, 0.003, 0.01, 0.03, 0.1} {
				for trial := 0; trial < 3; trial++ {
					flt := randomPopulation(rng, g, density, trial == 1)
					checkKill(t, "random", killSpec(g, floors[rng.Intn(len(floors))]), flt)
				}
			}
		}
	})

	t.Run("saturated", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, g := range killGeoms {
			for _, coarse := range []bool{false, true} {
				checkKill(t, "saturated", killSpec(g, 0.75), randomPopulation(rng, g, 1, coarse))
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		// A nominal pfail so small that the expected population of
		// the whole array at the floor is far below one fault.
		for _, g := range killGeoms {
			spec := killSpec(g, 0.75)
			spec.Model.PfailAtVccMin = 1e-18
			p := newProber(spec)
			for d := 0; d < 4; d++ {
				p.draw(d)
				if len(p.flt) != 0 {
					t.Fatalf("%v die %d: drew %d faults, want an empty population", g, d, len(p.flt))
				}
				checkKill(t, "empty", spec, p.flt)
			}
		}
	})

	t.Run("draws", func(t *testing.T) {
		// Real draws over the small geometries, from empty to
		// saturated populations.
		for i, g := range killGeoms {
			spec := killSpec(g, 0.75)
			spec.Seed = int64(i + 1)
			spec.Variation = Variation{WaferSigma: 3, Gradient: 1, DieSigma: 2}
			spec.Model.PfailAtVccMin = 1e-3
			p := newProber(spec)
			for d := 0; d < 24; d++ {
				p.draw(d)
				checkKill(t, "draw", spec, p.flt)
			}
		}
	})
}

// FuzzKillSeverity holds the kill severities of fuzzed populations to
// the oracle. data[0] picks the geometry and data[1] the capacity floor
// (byte/255); bit 0 of data[2] selects coarse one-byte severities
// (sixteen levels, so ties are common) over two-byte ones, bit 1 a
// saturated population (every cell faulty, severities from a stream
// seeded by the rest of the input). Otherwise the rest is a list of
// (gap, severity) records: a gap byte below 0x80 steps that many
// cells past the previous fault, one at or above it steps 29 times
// its low seven bits, reaching later blocks and their tag cells.
func FuzzKillSeverity(f *testing.F) {
	f.Add([]byte{0, 191, 0})
	f.Add([]byte{0, 191, 1, 0, 8, 31, 8, 31, 8, 31, 8, 31, 8})
	f.Add([]byte{1, 128, 0, 0x90, 0x10, 0x20, 0, 2, 0x80, 0xff, 0x81, 0x7f})
	f.Add([]byte{2, 255, 3, 7})
	f.Add([]byte{4, 200, 1, 1, 2, 1, 2, 1, 3, 0x85, 0, 0x85, 1, 0x85, 2})
	f.Add([]byte{5, 0, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g := killGeoms[int(data[0])%len(killGeoms)]
		spec := killSpec(g, float64(data[1])/255)
		mode, data := data[2], data[3:]
		coarse := mode&1 != 0
		if mode&2 != 0 {
			seed := int64(0)
			for _, b := range data {
				seed = seed*131 + int64(b)
			}
			checkKill(t, "fuzz saturated", spec, randomPopulation(rand.New(rand.NewSource(seed)), g, 1, coarse))
			return
		}
		width := 2
		if !coarse {
			width = 3
		}
		var flt []latentFault
		cell := -1
		for ; len(data) >= width; data = data[width:] {
			gap := int(data[0])
			if gap >= 0x80 {
				gap = (gap & 0x7f) * 29
			}
			if cell += 1 + gap; cell >= g.TotalCells() {
				break
			}
			sev := float64(data[1]&0x0f) / 16
			if !coarse {
				sev = float64(uint16(data[1])|uint16(data[2])<<8) / (1 << 16)
			}
			flt = append(flt, latentFault{sev: sev, cell: int32(cell)})
		}
		checkKill(t, "fuzz", spec, flt)
	})
}

// TestProberAllocs freezes the prober's buffer reuse: once it has seen
// a die with at least as many latent faults, a draw plus the grid
// steps allocates nothing — the population, the per-block minima, the
// pair events, the rank bucket and the kill severities are all reused.
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

// TestKillSlotsReset: the kill pass leaves its per-block slots as it
// found them (+Inf and 0), so one prober walking a mixed sequence of
// populations — saturated, empty, random at several densities, every
// block faulty — under every scheme set gives, population by
// population, the kill severities a fresh prober gives. A slot left
// dirty by one population shows up in a later one.
func TestKillSlotsReset(t *testing.T) {
	schemeSets := [][]sim.Scheme{
		allSchemes,
		{sim.BlockDisable, sim.WordDisable},
		{sim.IncrementalWordDisable, sim.Baseline},
		{sim.BitFix, sim.BlockDisable},
	}
	for _, s := range allSchemes {
		schemeSets = append(schemeSets, []sim.Scheme{s})
	}
	rng := rand.New(rand.NewSource(34))
	for _, g := range killGeoms {
		spec := killSpec(g, 0.75)
		var pops [][]latentFault
		for _, density := range []float64{1, 0, 0.003, 0.03, 0.3, 1} {
			pops = append(pops, randomPopulation(rng, g, density, density == 0.03))
		}
		var every []latentFault
		for b := 0; b < g.Blocks(); b++ {
			every = append(every, at(g, b, b*7%g.CellsPerBlock(), rng.Float64()))
		}
		pops = append(pops, every, nil)
		p := newProber(spec)
		for i := 0; i < 3*len(pops)*len(schemeSets); i++ {
			flt := pops[rng.Intn(len(pops))]
			schemes := schemeSets[rng.Intn(len(schemeSets))]
			p.flt = flt
			got := slices.Clone(p.killSeverities(schemes))
			fresh := newProber(spec)
			fresh.flt = flt
			if want := fresh.killSeverities(schemes); !slices.Equal(got, want) {
				t.Fatalf("%v step %d (%d faults, %v): reused prober %v, fresh prober %v", g, i, len(flt), schemes, got, want)
			}
			for b, m := range p.slotMin {
				if !math.IsInf(m, 1) || p.slotData[b] != 0 {
					t.Fatalf("%v step %d: block %d slots left at (%v, %d)", g, i, b, m, p.slotData[b])
				}
			}
		}
	}
}
