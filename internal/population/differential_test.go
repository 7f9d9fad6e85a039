package population

// The frozen pre-campaign prober, kept verbatim as the differential
// oracle for the incremental grid walk (the PR 7 / PR 9 pattern, run
// under `make diff-race`): a full O(F) fault-map rebuild at every
// probed voltage, bisected independently per scheme, with the
// per-scheme predicates evaluated by the core package's whole-cache
// walks. The optimized prober must match it decision-for-decision —
// same steps, same thresholds, same estimates — over randomized fleet
// specs covering every scheme, odd-way geometries, degenerate
// multipliers and saturated pfail.

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"vccmin/internal/core"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/sim"
)

// oracleProber is the frozen prober: one die at a time, rebuilding the
// active fault set from scratch at every probed voltage.
type oracleProber struct {
	spec FleetSpec

	cells []int32
	sev   []float64
	mult  float64
	pflr  float64

	m     *faults.Map
	dirty []int32
}

func newOracleProber(spec FleetSpec) *oracleProber {
	return &oracleProber{
		spec: spec,
		m: &faults.Map{
			Geom:     spec.Geom,
			WordBits: 32,
			Blocks:   make([]faults.BlockFaults, spec.Geom.Blocks()),
		},
	}
}

func (p *oracleProber) draw(d int) {
	p.mult = p.spec.DieMultiplier(d)
	p.pflr = p.spec.pfailAt(p.mult, p.spec.Model.VFloor)
	p.cells = p.cells[:0]
	p.sev = p.sev[:0]
	rng := rand.New(rand.NewSource(faults.DeriveSeed(p.spec.Seed, "fleet-die", strconv.Itoa(d))))
	rng.NormFloat64() // the die-noise draw consumed by DieMultiplier
	if p.pflr <= 0 {
		return
	}
	total := p.spec.Geom.TotalCells()
	if p.pflr >= 1 {
		for c := 0; c < total; c++ {
			p.cells = append(p.cells, int32(c))
			p.sev = append(p.sev, rng.Float64())
		}
		return
	}
	logQ := math.Log1p(-p.pflr)
	cell := -1
	for {
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		cell += 1 + int(math.Log(u)/logQ)
		if cell >= total || cell < 0 {
			return
		}
		p.cells = append(p.cells, int32(cell))
		p.sev = append(p.sev, rng.Float64())
	}
}

func (p *oracleProber) build(v float64) {
	for _, b := range p.dirty {
		p.m.Blocks[b] = faults.BlockFaults{}
	}
	p.dirty = p.dirty[:0]
	p.m.Total = 0
	if p.pflr <= 0 {
		return
	}
	ratio := p.spec.pfailAt(p.mult, v) / p.pflr
	k := p.spec.Geom.CellsPerBlock()
	for i, c := range p.cells {
		if p.sev[i] <= ratio {
			p.m.AddFault(int(c))
			b := c / int32(k)
			if n := len(p.dirty); n == 0 || p.dirty[n-1] != b {
				p.dirty = append(p.dirty, b)
			}
		}
	}
}

func (p *oracleProber) passAt(scheme sim.Scheme, v float64) bool {
	p.build(v)
	switch scheme {
	case sim.Baseline:
		return p.m.Total == 0
	case sim.WordDisable:
		return core.EvaluateWordDisable(p.m, core.ReferenceWordDisable()).Fit
	case sim.BlockDisable:
		return p.m.CapacityFraction() >= p.spec.CapacityFloor
	case sim.IncrementalWordDisable:
		return core.EvaluateIncrementalWD(p.m, core.ReferenceWordDisable()).CapacityFraction() >= p.spec.CapacityFloor
	case sim.BitFix:
		return core.EvaluateBitFix(p.m, core.ReferenceBitFix()).Fit
	}
	return false
}

func (p *oracleProber) stepAt(scheme sim.Scheme, grid []float64) int {
	if !p.passAt(scheme, grid[0]) {
		return -1
	}
	last := len(grid) - 1
	if p.passAt(scheme, grid[last]) {
		return last
	}
	lo, hi := 0, last // pass at lo, fail at hi
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.passAt(scheme, grid[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (p *oracleProber) thresholdVoltage(scheme sim.Scheme, iters int) float64 {
	lo, hi := p.spec.Model.VFloor, p.spec.Model.VccMin
	if !p.passAt(scheme, hi) {
		return hi
	}
	if p.passAt(scheme, lo) {
		return lo
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if p.passAt(scheme, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

func (p *oracleProber) estimateAndTruth(scheme sim.Scheme, k int) (est, truth float64) {
	lo, hi := p.spec.Model.VFloor, p.spec.Model.VccMin
	if !p.passAt(scheme, hi) {
		return hi, hi
	}
	if p.passAt(scheme, lo) {
		return lo, lo
	}
	est = math.NaN()
	for i := 0; i < truthIters; i++ {
		if i == k {
			est = (lo + hi) / 2
		}
		mid := (lo + hi) / 2
		if p.passAt(scheme, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	truth = (lo + hi) / 2
	if math.IsNaN(est) {
		est = truth
	}
	return est, truth
}

// allSchemes exercises every predicate the walk maintains.
var allSchemes = []sim.Scheme{
	sim.Baseline, sim.BlockDisable, sim.WordDisable,
	sim.IncrementalWordDisable, sim.BitFix,
}

// diffSpecs is the randomized fleet-spec battery both differential
// tests share: every scheme, several geometries (including odd ways,
// which leave the last way unpaired under incremental word-disable),
// wafer sigmas wide enough to reach pfail saturation, multipliers
// small enough to activate nothing, and varying grids and floors.
func diffSpecs(t *testing.T) []FleetSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var specs []FleetSpec
	geoms := []geom.Geometry{
		geom.MustNew(32*1024, 8, 64),
		geom.MustNew(16*1024, 4, 32),
		geom.MustNew(4*1024, 8, 128),
		geom.MustNew(3*1024, 3, 64), // odd ways: unpaired last way
		geom.MustNew(2*1024, 1, 64), // no pairs at all
	}
	for trial := 0; trial < 12; trial++ {
		spec := FleetSpec{
			Dies:          8 + rng.Intn(24),
			DiesPerWafer:  1 + rng.Intn(16),
			Geom:          geoms[trial%len(geoms)],
			Schemes:       allSchemes,
			VSteps:        2 + rng.Intn(40),
			CapacityFloor: 0.4 + 0.55*rng.Float64(),
			Seed:          rng.Int63(),
			Variation: Variation{
				// Wide sigmas push some dies past pfail saturation
				// (the full-population draw) and others to multipliers
				// so low no grid ratio reaches the minimum severity.
				WaferSigma: 0.2 + 4*rng.Float64(),
				Gradient:   0.1 + rng.Float64(),
				DieSigma:   0.1 + 2*rng.Float64(),
			},
		}
		spec = spec.WithDefaults()
		if err := spec.Check(); err != nil {
			t.Fatalf("trial %d: invalid spec: %v", trial, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestDifferentialProberWalk holds the incremental grid walk
// bit-identical to the frozen per-scheme bisection prober over the
// randomized spec battery.
func TestDifferentialProberWalk(t *testing.T) {
	for ti, spec := range diffSpecs(t) {
		grid := spec.Grid()
		p := newProber(spec)
		o := newOracleProber(spec)
		steps := make([]int, len(spec.Schemes))
		for d := 0; d < spec.Dies; d++ {
			p.draw(d)
			o.draw(d)
			if p.mult != o.mult || p.pflr != o.pflr {
				t.Fatalf("trial %d die %d: draw mismatch: mult %v vs %v, pflr %v vs %v",
					ti, d, p.mult, o.mult, p.pflr, o.pflr)
			}
			if len(p.flt) != len(o.cells) {
				t.Fatalf("trial %d die %d: population size %d vs %d", ti, d, len(p.flt), len(o.cells))
			}
			p.gridSteps(steps)
			for k, scheme := range spec.Schemes {
				if want := o.stepAt(scheme, grid); steps[k] != want {
					t.Fatalf("trial %d die %d scheme %v: step %d, oracle %d (mult %v, faults %d)",
						ti, d, scheme, steps[k], want, p.mult, len(p.flt))
				}
			}
		}
	}
}

// TestDifferentialProberPredict holds the critical-count predictor —
// thresholdVoltage and the K-measurement estimate — bit-identical to
// the frozen rebuild-per-probe bisection.
func TestDifferentialProberPredict(t *testing.T) {
	for ti, spec := range diffSpecs(t) {
		p := newProber(spec)
		o := newOracleProber(spec)
		for d := 0; d < spec.Dies; d += 3 {
			p.draw(d)
			o.draw(d)
			for _, scheme := range spec.Schemes {
				k := 1 + (d+ti)%8
				est, truth := p.estimateAndTruth(scheme, k)
				oEst, oTruth := o.estimateAndTruth(scheme, k)
				if est != oEst || truth != oTruth {
					t.Fatalf("trial %d die %d scheme %v k %d: estimate (%v,%v), oracle (%v,%v)",
						ti, d, scheme, k, est, truth, oEst, oTruth)
				}
				if tv, want := p.thresholdVoltage(scheme, 17), o.thresholdVoltage(scheme, 17); tv != want {
					t.Fatalf("trial %d die %d scheme %v: threshold %v, oracle %v", ti, d, scheme, tv, want)
				}
			}
		}
	}
}
