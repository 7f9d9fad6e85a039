package power

import "math"

// Energy analysis on top of the Fig. 1 model: where below-Vcc-min
// operation actually pays off. Normalized energy per unit of work is
// power/performance; classic DVS minimizes it at the Vcc-min knee, while
// below-Vcc-min operation pushes the optimum deeper until the cache
// capacity loss outweighs the quadratic voltage saving.

// EnergyPerWork returns the normalized energy per unit of computation at
// an operating point: dynamic power divided by delivered performance.
// Points with zero performance return +Inf.
func EnergyPerWork(p Point) float64 {
	if p.Performance <= 0 {
		return math.Inf(1)
	}
	return p.Power / p.Performance
}

// OperatingPointChoice is the result of an energy-optimization query.
type OperatingPointChoice struct {
	Point         Point
	EnergyPerWork float64
}

// MostEfficientPoint returns the operating point with minimal energy per
// work among those delivering at least minPerformance (normalized), using
// n+1 samples of the below-Vcc-min curve. ok is false when no sampled
// point meets the constraint.
func (m Model) MostEfficientPoint(minPerformance float64, n int) (OperatingPointChoice, bool) {
	best := OperatingPointChoice{EnergyPerWork: math.Inf(1)}
	found := false
	for _, p := range m.CurveBelowVccMin(n) {
		if p.Performance < minPerformance {
			continue
		}
		if e := EnergyPerWork(p); e < best.EnergyPerWork {
			best = OperatingPointChoice{Point: p, EnergyPerWork: e}
			found = true
		}
	}
	return best, found
}

// OperatingPointForPfail returns the below-Vcc-min operating point at the
// voltage where the failure model reaches the target pfail, clamped to
// [VFloor, VccMin]. It is the Fig. 1 point a sweep cell at that pfail
// occupies: its EnergyPerWork is the cell's normalized energy per
// instruction.
func (m Model) OperatingPointForPfail(pfail float64) Point {
	v := m.VoltageForPfail(pfail)
	if v < m.VFloor {
		v = m.VFloor
	}
	if v > m.VccMin {
		v = m.VccMin
	}
	zone := ZoneLowVoltage
	if v >= m.VccMin {
		zone = ZoneCubic
	}
	return m.pointAt(m.FreqForVoltage(v), v, zone)
}
