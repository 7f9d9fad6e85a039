package population

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"vccmin/internal/faults"
	"vccmin/internal/sim"
)

// TestFleetWorkerInvariance is the determinism contract: the same spec
// and seed produce byte-identical fleet rows and summaries at workers=1
// and workers=8.
func TestFleetWorkerInvariance(t *testing.T) {
	base := FleetSpec{Dies: 500, Seed: 42}

	one := base
	one.Workers = 1
	eight := base
	eight.Workers = 8

	a, err := RunFleet(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(eight)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("fleet result differs between workers=1 and workers=8:\n%s\nvs\n%s", aj, bj)
	}
}

func TestFleetSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*FleetSpec)
	}{
		{"negative dies", func(s *FleetSpec) { s.Dies = -5; s.DiesPerWafer = 4 }},
		{"vsteps below 2", func(s *FleetSpec) { s.VSteps = 1 }},
		{"capacity floor above 1", func(s *FleetSpec) { s.CapacityFloor = 1.5 }},
		{"negative wafer sigma", func(s *FleetSpec) { s.Variation.WaferSigma = -0.1 }},
		{"negative gradient", func(s *FleetSpec) { s.Variation.Gradient = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := FleetSpec{Dies: 10}.WithDefaults()
			tc.mutate(&spec)
			if err := spec.Check(); err == nil {
				t.Fatalf("Check accepted invalid spec %+v", spec)
			}
			if _, err := RunFleet(spec); err == nil {
				t.Fatal("RunFleet accepted invalid spec")
			}
		})
	}
}

// TestFleetSummaryConsistency cross-checks the reduction: histogram
// mass, yield-curve endpoints and wafer partitions must all agree with
// the die rows.
func TestFleetSummaryConsistency(t *testing.T) {
	spec := FleetSpec{Dies: 300, DiesPerWafer: 49, Seed: 9,
		Schemes: []sim.Scheme{sim.BlockDisable, sim.WordDisable, sim.Baseline}}
	res, err := RunFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dies) != 300 {
		t.Fatalf("want 300 die rows, got %d", len(res.Dies))
	}
	if got := res.Spec.Wafers(); got != 7 {
		t.Fatalf("300 dies at 49/wafer should span 7 wafers, got %d", got)
	}
	for k, sy := range res.Schemes {
		mass := 0
		for _, h := range sy.Hist {
			mass += h
		}
		if mass+sy.FailedAtNominal != len(res.Dies) {
			t.Errorf("scheme %s: hist mass %d + failed %d != %d dies",
				sy.Scheme, mass, sy.FailedAtNominal, len(res.Dies))
		}
		wantYield0 := float64(len(res.Dies)-sy.FailedAtNominal) / float64(len(res.Dies))
		if math.Abs(sy.Yield[0]-wantYield0) > 1e-12 {
			t.Errorf("scheme %s: yield at nominal %v, want %v", sy.Scheme, sy.Yield[0], wantYield0)
		}
		last := len(sy.Yield) - 1
		if got := float64(sy.ReachFloor) / float64(len(res.Dies)); math.Abs(sy.Yield[last]-got) > 1e-12 {
			t.Errorf("scheme %s: yield at floor %v, want %v", sy.Scheme, sy.Yield[last], got)
		}
		for i := 1; i < len(sy.Yield); i++ {
			if sy.Yield[i] > sy.Yield[i-1]+1e-12 {
				t.Errorf("scheme %s: yield curve rises at step %d (%v -> %v)",
					sy.Scheme, i, sy.Yield[i-1], sy.Yield[i])
			}
		}
		waferDies := 0
		for _, ws := range sy.Wafers {
			waferDies += ws.Dies
		}
		if waferDies != len(res.Dies) {
			t.Errorf("scheme %s: wafer summaries cover %d dies, want %d", sy.Scheme, waferDies, len(res.Dies))
		}
		// Baseline can never out-survive a repair scheme on the same die.
		if sy.Scheme == "baseline" {
			for _, d := range res.Dies {
				if d.Steps[k] > d.Steps[0] {
					t.Fatalf("die %d: baseline step %d deeper than block-disable %d",
						d.Die, d.Steps[k], d.Steps[0])
				}
			}
		}
	}
}

// DieMultiplier returns die d's pfail multiplier: the wafer mean drawn
// from ("wafer", w), the radial gradient at the die's wafer position,
// and the die noise drawn from the head of the die's own stream.
func (s FleetSpec) DieMultiplier(d int) float64 {
	w := d / s.DiesPerWafer
	j := d % s.DiesPerWafer
	waferRng := rand.New(rand.NewSource(faults.DeriveSeed(s.Seed, "wafer", strconv.Itoa(w))))
	mu := s.Variation.WaferSigma * waferRng.NormFloat64()
	dieRng := rand.New(rand.NewSource(faults.DeriveSeed(s.Seed, "fleet-die", strconv.Itoa(d))))
	noise := s.Variation.DieSigma * dieRng.NormFloat64()
	return math.Exp(mu + s.gradientAt(j) + noise)
}

// TestDieMultiplierDeterministic pins that a die's multiplier depends
// only on (seed, die index), not on how much of the fleet is measured.
func TestDieMultiplierDeterministic(t *testing.T) {
	a := FleetSpec{Dies: 10, Seed: 7}.WithDefaults()
	b := FleetSpec{Dies: 100000, Seed: 7}.WithDefaults()
	for d := 0; d < 10; d++ {
		if ma, mb := a.DieMultiplier(d), b.DieMultiplier(d); ma != mb {
			t.Fatalf("die %d multiplier changed with fleet size: %v vs %v", d, ma, mb)
		}
	}
	if m0, m1 := a.DieMultiplier(0), a.DieMultiplier(1); m0 == m1 {
		t.Fatal("distinct dies drew identical multipliers")
	}
	if a.DieMultiplier(3) == (FleetSpec{Dies: 10, Seed: 8}).WithDefaults().DieMultiplier(3) {
		t.Fatal("changing the seed did not change the multiplier")
	}
}

// TestFleetGrid pins the grid endpoints and monotonicity.
func TestFleetGrid(t *testing.T) {
	spec := FleetSpec{}.WithDefaults()
	g := spec.Grid()
	if g[0] != spec.Model.VccMin {
		t.Fatalf("grid[0] = %v, want VccMin %v", g[0], spec.Model.VccMin)
	}
	if g[len(g)-1] != spec.Model.VFloor {
		t.Fatalf("grid end = %v, want VFloor %v", g[len(g)-1], spec.Model.VFloor)
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Fatalf("grid not strictly descending at %d", i)
		}
	}
}
