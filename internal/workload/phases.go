package workload

import "fmt"

// A MultiPhase workload is a piecewise sequence of the single-benchmark
// Profiles: each Phase runs one profile for a dynamic instruction budget,
// then execution moves to the next phase. Real programs alternate between
// compute-bound, memory-bound and cache-capacity-sensitive regions; the
// phase sequence is exactly the structure a dual-mode (high/low voltage)
// scheduler exploits, because the profitable operating mode differs per
// phase. The builtin multi-phase workloads below compose the 26 SPEC
// profiles into the alternation patterns the dvfs package schedules over.

// Phase is one segment of a multi-phase workload: a benchmark profile and
// the number of dynamic instructions it runs for at reference scale.
type Phase struct {
	Benchmark    string // a Profiles() name
	Instructions int    // dynamic length at reference scale
}

// MultiPhase is a named piecewise workload.
type MultiPhase struct {
	Name   string
	Phases []Phase
}

// Check validates the workload: every phase must name a known profile and
// carry a positive instruction budget.
func (m MultiPhase) Check() error {
	if m.Name == "" {
		return fmt.Errorf("workload: multi-phase workload needs a name")
	}
	if len(m.Phases) == 0 {
		return fmt.Errorf("workload %s: needs at least one phase", m.Name)
	}
	for i, ph := range m.Phases {
		if ph.Instructions <= 0 {
			return fmt.Errorf("workload %s: phase %d instructions %d must be positive", m.Name, i, ph.Instructions)
		}
		if _, err := ByName(ph.Benchmark); err != nil {
			return fmt.Errorf("workload %s: phase %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// TotalInstructions sums the phase budgets.
func (m MultiPhase) TotalInstructions() int {
	n := 0
	for _, ph := range m.Phases {
		n += ph.Instructions
	}
	return n
}

// Scaled returns a copy whose phase budgets are rescaled proportionally so
// the total is approximately total (each phase keeps at least one
// instruction). The scaling is pure integer arithmetic on the phase
// ratios, so a given (workload, total) pair always yields the identical
// phase schedule.
func (m MultiPhase) Scaled(total int) MultiPhase {
	cur := m.TotalInstructions()
	if total <= 0 || cur == 0 || cur == total {
		return m
	}
	out := MultiPhase{Name: m.Name, Phases: make([]Phase, len(m.Phases))}
	for i, ph := range m.Phases {
		n := ph.Instructions * total / cur
		if n < 1 {
			n = 1
		}
		out.Phases[i] = Phase{Benchmark: ph.Benchmark, Instructions: n}
	}
	return out
}

// MultiPhaseProfiles returns the builtin multi-phase workloads. Each
// encodes a scheduling scenario the paper's dual-mode system faces:
//
//   - compute-memory-swing: a compute-bound kernel (eon) alternating with
//     a pointer-chasing memory-bound region (mcf) — the canonical case
//     where the oracle runs compute phases at high voltage and memory
//     phases below Vcc-min.
//   - bursty-server: short compute bursts (gzip) between long
//     memory-dominated scans (art), the request/scan rhythm of a server.
//   - cache-pressure-ramp: capacity-sensitive phases of growing working
//     set (gzip → vpr → crafty → gcc) ending memory-bound (swim) — mode
//     choice interacts with how much cache the low-voltage scheme keeps.
//   - steady-compute: sixtrack then eon, compute-bound throughout — the
//     control case where phase-aware scheduling should discover that
//     staying at one operating point is optimal.
func MultiPhaseProfiles() []MultiPhase {
	const u = 10_000 // reference phase unit
	return []MultiPhase{
		{Name: "compute-memory-swing", Phases: []Phase{
			{Benchmark: "eon", Instructions: 2 * u},
			{Benchmark: "mcf", Instructions: 2 * u},
			{Benchmark: "eon", Instructions: 2 * u},
			{Benchmark: "mcf", Instructions: 2 * u},
			{Benchmark: "eon", Instructions: 2 * u},
			{Benchmark: "mcf", Instructions: 2 * u},
		}},
		{Name: "bursty-server", Phases: []Phase{
			{Benchmark: "gzip", Instructions: u},
			{Benchmark: "art", Instructions: 3 * u},
			{Benchmark: "gzip", Instructions: u},
			{Benchmark: "art", Instructions: 3 * u},
			{Benchmark: "gzip", Instructions: u},
			{Benchmark: "art", Instructions: 3 * u},
		}},
		{Name: "cache-pressure-ramp", Phases: []Phase{
			{Benchmark: "gzip", Instructions: 2 * u},
			{Benchmark: "vpr", Instructions: 2 * u},
			{Benchmark: "crafty", Instructions: 3 * u},
			{Benchmark: "gcc", Instructions: 3 * u},
			{Benchmark: "swim", Instructions: 2 * u},
		}},
		{Name: "steady-compute", Phases: []Phase{
			{Benchmark: "sixtrack", Instructions: 3 * u},
			{Benchmark: "eon", Instructions: 3 * u},
			{Benchmark: "sixtrack", Instructions: 3 * u},
			{Benchmark: "eon", Instructions: 3 * u},
		}},
	}
}

// MultiPhaseByName returns the builtin multi-phase workload with the
// given name.
func MultiPhaseByName(name string) (MultiPhase, error) {
	for _, m := range MultiPhaseProfiles() {
		if m.Name == name {
			return m, nil
		}
	}
	return MultiPhase{}, fmt.Errorf("workload: unknown multi-phase workload %q", name)
}

// MultiPhaseNames returns the builtin multi-phase workload names in
// definition order.
func MultiPhaseNames() []string {
	ms := MultiPhaseProfiles()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}
