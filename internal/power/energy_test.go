package power

import (
	"math"
	"testing"
)

func TestEnergyPerWork(t *testing.T) {
	if e := EnergyPerWork(Point{Power: 0.5, Performance: 0.25}); math.Abs(e-2) > 1e-12 {
		t.Errorf("EnergyPerWork = %v, want 2", e)
	}
	if e := EnergyPerWork(Point{Power: 0.5, Performance: 0}); !math.IsInf(e, 1) {
		t.Errorf("zero performance should give +Inf, got %v", e)
	}
}

func TestMostEfficientPointRespectsConstraint(t *testing.T) {
	m := Default()
	for _, minPerf := range []float64{0.1, 0.3, 0.6, 0.9} {
		c, ok := m.MostEfficientPoint(minPerf, 400)
		if !ok {
			t.Fatalf("no operating point meets performance %v", minPerf)
		}
		if c.Point.Performance < minPerf {
			t.Errorf("chosen point performance %v below constraint %v", c.Point.Performance, minPerf)
		}
	}
	if _, ok := m.MostEfficientPoint(2.0, 100); ok {
		t.Error("impossible constraint should fail")
	}
}

func TestEfficiencyImprovesAsConstraintRelaxes(t *testing.T) {
	m := Default()
	prev := 0.0
	for _, minPerf := range []float64{0.9, 0.6, 0.3, 0.1} {
		c, ok := m.MostEfficientPoint(minPerf, 400)
		if !ok {
			t.Fatal("constraint unmet")
		}
		if prev != 0 && c.EnergyPerWork > prev+1e-12 {
			t.Errorf("relaxing the constraint to %v worsened energy: %v > %v", minPerf, c.EnergyPerWork, prev)
		}
		prev = c.EnergyPerWork
	}
}

// savingVsClassic is the fractional energy-per-work saving of the most
// efficient below-Vcc-min point against the most efficient classic-DVS
// point, both meeting minPerformance; ok is false if either curve cannot
// meet it.
func savingVsClassic(m Model, minPerformance float64, n int) (float64, bool) {
	below, ok := m.MostEfficientPoint(minPerformance, n)
	if !ok {
		return 0, false
	}
	bestClassic := math.Inf(1)
	for _, p := range m.CurveClassic(n) {
		if p.Performance >= minPerformance {
			bestClassic = math.Min(bestClassic, EnergyPerWork(p))
		}
	}
	if math.IsInf(bestClassic, 1) {
		return 0, false
	}
	return 1 - below.EnergyPerWork/bestClassic, true
}

func TestBelowVccMinSavesEnergy(t *testing.T) {
	// For performance targets inside the low-voltage zone, operating
	// below Vcc-min must save energy versus classic DVS — the paper's
	// motivation quantified.
	m := Default()
	mid := (m.FreqAtVFloor() + m.FreqAtVccMin()) / 2
	saving, ok := savingVsClassic(m, mid*0.8, 400)
	if !ok {
		t.Fatal("no feasible points")
	}
	if saving <= 0 {
		t.Errorf("below-Vcc-min saving = %v, want positive", saving)
	}
	// At full performance there is nothing to save.
	savingFull, ok := savingVsClassic(m, 0.999, 400)
	if ok && savingFull > 0.01 {
		t.Errorf("full-speed saving = %v, want ≈0", savingFull)
	}
}
