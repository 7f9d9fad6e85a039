package population

import (
	"math"

	"vccmin/internal/par"
)

// DieResult is one die's fleet row: identity, wafer position, the
// drawn multiplier and the per-scheme Vcc-min grid step. Rows are
// die-indexed, so a fleet's row slice is bit-identical at every worker
// count.
type DieResult struct {
	Die   int `json:"die"`
	Wafer int `json:"wafer"`
	X     int `json:"x"`
	Y     int `json:"y"`
	// Multiplier is the die's pfail multiplier (1 = the nominal model).
	Multiplier float64 `json:"multiplier"`
	// Steps[k] is the deepest passing grid index under spec scheme k:
	// -1 = fails at the nominal Vcc-min, len(grid)-1 = reaches the
	// voltage floor. The die's Vcc-min under scheme k is grid[Steps[k]].
	Steps []int `json:"steps"`
}

// WaferSummary aggregates one wafer under one scheme.
type WaferSummary struct {
	Wafer int `json:"wafer"`
	Dies  int `json:"dies"`
	// MeanMultiplier is the wafer's mean pfail multiplier.
	MeanMultiplier float64 `json:"mean_multiplier"`
	// MeanVccMin averages Vcc-min over the wafer's dies that pass at
	// nominal (0 when none do).
	MeanVccMin float64 `json:"mean_vccmin"`
	// YieldAtFloor is the fraction of the wafer's dies that operate
	// all the way down at the voltage floor.
	YieldAtFloor float64 `json:"yield_at_floor"`
}

// SchemeYield is one scheme's fleet-level distribution: the Vcc-min
// histogram over the voltage grid, the yield-versus-voltage curve,
// distribution quantiles and per-wafer summaries.
type SchemeYield struct {
	Scheme string `json:"scheme"`
	// Hist[i] counts dies whose Vcc-min is exactly grid voltage i.
	Hist []int `json:"hist"`
	// FailedAtNominal counts dies unusable even at the nominal
	// Vcc-min (grid index 0) — yield loss before any undervolting.
	FailedAtNominal int `json:"failed_at_nominal"`
	// ReachFloor counts dies that operate at the voltage floor.
	ReachFloor int `json:"reach_floor"`
	// Yield[i] is the fraction of the fleet operable at grid voltage
	// i — the yield-versus-voltage curve.
	Yield []float64 `json:"yield"`
	// P50/P90/P99 are Vcc-min distribution quantiles over the dies
	// that pass at nominal: the grid voltage below which the given
	// fraction of passing dies still operates.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Wafers summarizes each wafer under this scheme.
	Wafers []WaferSummary `json:"wafers"`
}

// FleetResult is one fleet measurement: the voltage grid, the
// die-indexed rows and the per-scheme distributions.
type FleetResult struct {
	Spec FleetSpec `json:"-"`
	// Grid is the descending voltage grid the steps index into.
	Grid []float64 `json:"grid"`
	// Dies holds one row per die, in die order.
	Dies []DieResult `json:"dies"`
	// Schemes holds one distribution per spec scheme, in spec order.
	Schemes []SchemeYield `json:"schemes"`
}

// RunFleet measures every die of the fleet: each die draws its latent
// fault population from its own derived seed and resolves its Vcc-min
// grid step under every spec scheme from the schemes' kill severities,
// found in one pass over that population. Dies fan out over
// spec.Workers goroutines (par.Do) into die-indexed slots and are
// reduced serially, so the result is bit-identical at every worker
// count. The spec is defaulted and validated here, so callers may
// pass a sparse one.
func RunFleet(spec FleetSpec) (*FleetResult, error) {
	spec = spec.WithDefaults()
	if err := spec.Check(); err != nil {
		return nil, err
	}
	grid := spec.Grid()
	dies := make([]DieResult, spec.Dies)
	// One backing array for every die's Steps slice: slot d owns
	// [d*nS, (d+1)*nS), disjoint across workers, so the fan-out stays
	// race-free and the per-die allocation disappears.
	nS := len(spec.Schemes)
	stepsBacking := make([]int, spec.Dies*nS)
	// Each worker owns one prober; the fan-out never fails.
	_ = par.Do(spec.Dies, spec.Workers, func() *prober { return newProber(spec) }, func(p *prober, d int) error {
		p.draw(d)
		x, y := spec.DiePosition(d % spec.DiesPerWafer)
		steps := stepsBacking[d*nS : (d+1)*nS : (d+1)*nS]
		p.gridSteps(steps)
		dies[d] = DieResult{
			Die:        d,
			Wafer:      d / spec.DiesPerWafer,
			X:          x,
			Y:          y,
			Multiplier: p.mult,
			Steps:      steps,
		}
		return nil
	}, nil)

	res := &FleetResult{Spec: spec, Grid: grid, Dies: dies}
	for k, scheme := range spec.Schemes {
		res.Schemes = append(res.Schemes, summarizeScheme(spec, grid, dies, k, scheme.String()))
	}
	return res, nil
}

// summarizeScheme reduces the die rows into one scheme's distribution.
// The reduction is serial and in die order, so it inherits the rows'
// bit-identity.
func summarizeScheme(spec FleetSpec, grid []float64, dies []DieResult, k int, name string) SchemeYield {
	y := SchemeYield{
		Scheme: name,
		Hist:   make([]int, len(grid)),
		Yield:  make([]float64, len(grid)),
	}
	wafers := spec.Wafers()
	type wacc struct {
		dies, pass, floor int
		multSum, vSum     float64
	}
	acc := make([]wacc, wafers)
	for _, d := range dies {
		a := &acc[d.Wafer]
		a.dies++
		a.multSum += d.Multiplier
		step := d.Steps[k]
		if step < 0 {
			y.FailedAtNominal++
			continue
		}
		y.Hist[step]++
		a.pass++
		a.vSum += grid[step]
		if step == len(grid)-1 {
			y.ReachFloor++
			a.floor++
		}
	}
	// Yield at grid voltage i = dies whose deepest passing step is at
	// least i — a suffix sum of the histogram.
	operable := 0
	for i := len(grid) - 1; i >= 0; i-- {
		operable += y.Hist[i]
		y.Yield[i] = float64(operable) / float64(len(dies))
	}
	passing := len(dies) - y.FailedAtNominal
	y.P50 = quantileVoltage(grid, y.Hist, passing, 0.50)
	y.P90 = quantileVoltage(grid, y.Hist, passing, 0.90)
	y.P99 = quantileVoltage(grid, y.Hist, passing, 0.99)
	for w := range acc {
		ws := WaferSummary{Wafer: w, Dies: acc[w].dies}
		if acc[w].dies > 0 {
			ws.MeanMultiplier = acc[w].multSum / float64(acc[w].dies)
			ws.YieldAtFloor = float64(acc[w].floor) / float64(acc[w].dies)
		}
		if acc[w].pass > 0 {
			ws.MeanVccMin = acc[w].vSum / float64(acc[w].pass)
		}
		y.Wafers = append(y.Wafers, ws)
	}
	return y
}

// quantileVoltage returns the lowest grid voltage V such that at least
// fraction q of the passing dies have Vcc-min at or below V — reading
// the distribution from its deep (low-voltage) end upward.
func quantileVoltage(grid []float64, hist []int, passing int, q float64) float64 {
	if passing <= 0 {
		return math.NaN()
	}
	need := q * float64(passing)
	cum := 0
	for i := len(grid) - 1; i >= 0; i-- {
		cum += hist[i]
		if float64(cum) >= need {
			return grid[i]
		}
	}
	return grid[0]
}
