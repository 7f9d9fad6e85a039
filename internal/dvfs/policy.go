package dvfs

import (
	"fmt"

	"vccmin/internal/sim"
)

// PolicyKind names a mode-scheduling policy.
type PolicyKind int

const (
	// PolicyNone is the zero value: no dvfs evaluation. It exists so the
	// sweep engine's policy axis can default to "absent" without changing
	// the meaning (or cell keys) of existing sweeps.
	PolicyNone PolicyKind = iota

	// PolicyStaticHigh pins the run to the high-voltage mode (3 GHz,
	// fully reliable caches) — the performance bound.
	PolicyStaticHigh

	// PolicyStaticLow pins the run to the low-voltage mode (600 MHz,
	// fault-mitigated caches) — the classic energy bound.
	PolicyStaticLow

	// PolicyOracle knows every phase's cost in both modes (from isolated
	// per-phase probe runs) and picks the per-phase mode sequence that
	// minimizes energy + λ·time including switch penalties, by dynamic
	// programming. λ defaults to the energy/time exchange rate between
	// the two static schedules, so the oracle prices a saved joule
	// against a lost second the way the static extremes do.
	PolicyOracle

	// PolicyReactive observes each executed chunk's IPC and switches to
	// low voltage when it falls below the threshold (a stalling,
	// memory-bound region gains little from the fast clock), back to
	// high when it rises above the mode-scaled threshold — a realizable
	// online policy. See Config.IPCThreshold and lowIPCScale.
	PolicyReactive

	// PolicyInterval alternates modes at a fixed instruction interval
	// regardless of phase structure — the naive duty-cycling baseline a
	// phase-aware policy must beat.
	PolicyInterval
)

// String implements fmt.Stringer; the forms are accepted by ParsePolicy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyStaticHigh:
		return "static-high"
	case PolicyStaticLow:
		return "static-low"
	case PolicyOracle:
		return "oracle"
	case PolicyReactive:
		return "reactive"
	case PolicyInterval:
		return "interval"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// ParsePolicy converts a CLI-style policy name to a PolicyKind. Both the
// Stringer names and short forms ("high", "low") are accepted.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "none":
		return PolicyNone, nil
	case "static-high", "high":
		return PolicyStaticHigh, nil
	case "static-low", "low":
		return PolicyStaticLow, nil
	case "oracle":
		return PolicyOracle, nil
	case "reactive":
		return PolicyReactive, nil
	case "interval":
		return PolicyInterval, nil
	}
	return 0, fmt.Errorf("dvfs: unknown policy %q (want static-high, static-low, oracle, reactive or interval)", s)
}

// Policies returns the schedulable policies (everything but PolicyNone)
// in presentation order.
func Policies() []PolicyKind {
	return []PolicyKind{PolicyStaticHigh, PolicyStaticLow, PolicyOracle, PolicyReactive, PolicyInterval}
}

// decisionContext is what a policy sees at a chunk boundary.
type decisionContext struct {
	Phase      int      // phase the next chunk belongs to
	Chunk      int      // 0-based index of the next chunk
	Mode       sim.Mode // mode the previous chunk ran in
	LastIPC    float64  // previous chunk's IPC (0 before the first chunk)
	HaveSample bool     // a previous chunk has been observed
}

// policyFunc returns the mode for the next chunk.
type policyFunc func(decisionContext) sim.Mode

// oraclePlan is the DP mode schedule; phase i runs in plan[i].
type oraclePlan []sim.Mode

// planOracle solves the per-phase mode assignment minimizing
// Σ(energy + λ·time) with switch penalties, by dynamic programming over
// (phase, mode) states. energyOf/timeOf give a phase's isolated-probe cost
// in a mode; switchEnergy/switchTime price one mode transition charged in
// the destination mode.
//
// The DP state is two flat arrays — best-cost per ending mode and a
// packed predecessor table — allocated once up front (the map-per-phase
// formulation this replaces allocated two maps per phase; the _test.go
// reference keeps it, and TestDifferentialOraclePlan holds the two to
// identical plans). The float arithmetic and the comparison order are
// exactly the reference's: candidates are evaluated high-voltage first
// with a strict < comparison, so ties prefer high voltage everywhere.
func planOracle(phases int, lambda float64,
	energyOf, timeOf func(phase int, m sim.Mode) float64,
	switchEnergy, switchTime func(to sim.Mode) float64) oraclePlan {

	modes := [2]sim.Mode{sim.HighVoltage, sim.LowVoltage}
	cost := func(p int, m sim.Mode) float64 { return energyOf(p, m) + lambda*timeOf(p, m) }
	swCost := func(to sim.Mode) float64 { return switchEnergy(to) + lambda*switchTime(to) }

	// best[i] is the minimal cost of scheduling phases [0..p] ending in
	// modes[i]; from[2p+i] the index of the predecessor mode achieving it.
	var best, next [2]float64
	from := make([]uint8, 2*phases)
	best[0] = cost(0, modes[0])
	best[1] = cost(0, modes[1])
	for p := 1; p < phases; p++ {
		for i, m := range modes {
			sw := swCost(m)
			v0 := best[0]
			if modes[0] != m {
				v0 += sw
			}
			v1 := best[1]
			if modes[1] != m {
				v1 += sw
			}
			bestPrev, bestVal := uint8(0), v0
			if v1 < bestVal {
				bestPrev, bestVal = 1, v1
			}
			next[i] = bestVal + cost(p, m)
			from[2*p+i] = bestPrev
		}
		best = next
	}

	plan := make(oraclePlan, phases)
	last := uint8(0)
	if best[1] < best[0] {
		last = 1
	}
	plan[phases-1] = modes[last]
	for p := phases - 1; p > 0; p-- {
		last = from[2*p+int(last)]
		plan[p-1] = modes[last]
	}
	return plan
}
