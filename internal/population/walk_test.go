package population

// Edge cases the incremental grid walk must preserve from the frozen
// prober: saturated pfail (full-population draw), vanishing pfail
// (empty draw), populations whose severities only activate at the very
// bottom of the grid, and independence of the per-die steps from the
// scheme evaluation order.

import (
	"testing"

	"vccmin/internal/sim"
)

// saturatedSpec drives the floor pfail to its clamp at 1 for wafer
// corner dies: a huge nominal pfail, negligible random variation, and
// a radial gradient that pushes corner multipliers above 1, so the
// draw must take the full-population path.
func saturatedSpec() FleetSpec {
	spec := FleetSpec{Seed: 11}.WithDefaults()
	spec.Model.PfailAtVccMin = 0.99
	spec.Variation = Variation{WaferSigma: 1e-12, Gradient: 1, DieSigma: 1e-12}
	return spec
}

func TestWalkSaturatedPfailFullDraw(t *testing.T) {
	spec := saturatedSpec()
	p := newProber(spec)
	steps := make([]int, len(spec.Schemes))
	for _, d := range []int{0, spec.DiesPerWafer - 1} { // wafer corners
		p.draw(d)
		if p.pflr < 1 {
			t.Fatalf("die %d: floor pfail %v, want saturated (>= 1)", d, p.pflr)
		}
		if got, want := len(p.flt), spec.Geom.TotalCells(); got != want {
			t.Fatalf("die %d: drew %d faults, want the full population %d", d, got, want)
		}
		p.gridSteps(steps)
		for k, scheme := range spec.Schemes {
			if steps[k] != -1 {
				t.Fatalf("die %d scheme %v: step %d, want -1 (every cell faulty near nominal)", d, scheme, steps[k])
			}
		}
	}
}

func TestWalkZeroPfailEmptyDraw(t *testing.T) {
	spec := FleetSpec{Seed: 3, Schemes: allSchemes}.WithDefaults()
	p := newProber(spec)
	p.draw(0)
	// Force the degenerate multiplier-underflow case: an effective
	// floor pfail of zero means draw leaves the population empty and
	// every voltage sees the fault-free cache.
	p.mult = 0
	p.pflr = 0
	p.flt = p.flt[:0]
	steps := make([]int, len(spec.Schemes))
	p.gridSteps(steps)
	last := spec.VSteps - 1
	for k, scheme := range spec.Schemes {
		if steps[k] != last {
			t.Fatalf("scheme %v: step %d, want %d (fault-free die reaches the floor)", scheme, steps[k], last)
		}
		if c := p.criticalCount(scheme); c != 0 {
			t.Fatalf("scheme %v: critical count %d, want 0 on an empty population", scheme, c)
		}
		if est, truth := p.estimateAndTruth(scheme, 4); est != spec.Model.VFloor || truth != spec.Model.VFloor {
			t.Fatalf("scheme %v: estimate (%v,%v), want the floor voltage", scheme, est, truth)
		}
	}
}

func TestWalkSeveritiesActivateOnlyAtFloor(t *testing.T) {
	spec := FleetSpec{Seed: 5, Schemes: []sim.Scheme{sim.Baseline, sim.BlockDisable}}.WithDefaults()
	p := newProber(spec)
	p.draw(0)
	// A multiplier so low that every grid ratio except the floor's own
	// (which is exactly 1 by construction) stays below the minimum
	// severity: the whole population activates only at the last grid
	// index. pfail decays by e^(span/efold) ≈ e^9.2 per full grid, so
	// with all severities near 1 even the second-to-last ratio is
	// orders of magnitude too small.
	p.flt = append(p.flt[:0],
		latentFault{sev: 0.999, cell: 1},
		latentFault{sev: 0.9995, cell: 7},
	)
	steps := make([]int, len(spec.Schemes))
	p.gridSteps(steps)
	last := spec.VSteps - 1
	// Baseline tolerates no fault: it passes every step except the
	// floor, where both faults finally activate.
	if steps[0] != last-1 {
		t.Fatalf("baseline: step %d, want %d (faults activate only at the floor)", steps[0], last-1)
	}
	// Two faulty cells cannot breach the block-disable capacity floor.
	if steps[1] != last {
		t.Fatalf("block-disable: step %d, want %d", steps[1], last)
	}
}

// TestWalkStepsIndependentOfSchemeOrder re-runs the walk under
// permuted scheme lists: a die's step under a scheme must not depend
// on which other schemes share the walk or their order.
func TestWalkStepsIndependentOfSchemeOrder(t *testing.T) {
	orders := [][]sim.Scheme{
		{sim.Baseline, sim.BlockDisable, sim.WordDisable, sim.IncrementalWordDisable, sim.BitFix},
		{sim.BitFix, sim.IncrementalWordDisable, sim.WordDisable, sim.BlockDisable, sim.Baseline},
		{sim.WordDisable},
		{sim.IncrementalWordDisable, sim.Baseline},
	}
	spec := FleetSpec{Seed: 9, Dies: 48, Variation: Variation{WaferSigma: 2, Gradient: 0.5, DieSigma: 1}}.WithDefaults()
	// Reference: each scheme measured alone.
	want := map[sim.Scheme][]int{}
	for _, scheme := range allSchemes {
		solo := spec
		solo.Schemes = []sim.Scheme{scheme}
		p := newProber(solo)
		steps := make([]int, 1)
		for d := 0; d < spec.Dies; d++ {
			p.draw(d)
			p.gridSteps(steps)
			want[scheme] = append(want[scheme], steps[0])
		}
	}
	for _, order := range orders {
		mixed := spec
		mixed.Schemes = order
		p := newProber(mixed)
		steps := make([]int, len(order))
		for d := 0; d < spec.Dies; d++ {
			p.draw(d)
			p.gridSteps(steps)
			for k, scheme := range order {
				if steps[k] != want[scheme][d] {
					t.Fatalf("die %d scheme %v in order %v: step %d, want %d",
						d, scheme, order, steps[k], want[scheme][d])
				}
			}
		}
	}
}
