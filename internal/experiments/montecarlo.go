package experiments

import (
	"strconv"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/par"
	"vccmin/internal/prob"
)

// MeasuredBlockDisableCapacity estimates Eq. 2 by Monte Carlo: the mean
// fraction of fault-free blocks over trials fault maps drawn at pfail.
// Seeds derive per trial from seed, so the estimate is reproducible. This
// is the empirical counterpart the property tests (and the service's
// measured-capacity query) hold against prob.ExpectedCapacity.
//
// Trials draw on the sparse fast path (one reused map buffer per worker)
// and run on all CPUs; use MeasuredBlockDisableCapacityWorkers to bound
// the worker pool. The result is a pure function of (g, pfail, trials,
// seed) — worker count and scheduling never change it.
func MeasuredBlockDisableCapacity(g geom.Geometry, pfail float64, trials int, seed int64) float64 {
	return MeasuredBlockDisableCapacityWorkers(g, pfail, trials, seed, 0)
}

// MeasuredBlockDisableCapacityWorkers is MeasuredBlockDisableCapacity
// with the worker pool bounded to workers goroutines (0 = GOMAXPROCS).
// Per-trial capacities land in trial-indexed slots and are reduced
// serially, so the estimate is bit-identical for every worker count.
func MeasuredBlockDisableCapacityWorkers(g geom.Geometry, pfail float64, trials int, seed int64, workers int) float64 {
	if trials <= 0 {
		trials = 1
	}
	caps := make([]float64, trials)
	// fn never fails, so neither does Do.
	_ = par.Do(trials, workers, func() *faults.Sampler { return new(faults.Sampler) }, func(sampler *faults.Sampler, t int) error {
		m := sampler.Draw(g, 32, pfail, faults.DeriveSeed(seed, "capacity-trial", strconv.Itoa(t)))
		// Identical to core.BuildBlockDisable(m).CapacityFraction()
		// — enabled blocks over total blocks, the same division —
		// without materializing the per-trial way-mask structure.
		blocks := len(m.Blocks)
		caps[t] = float64(blocks-m.FaultyBlocks()) / float64(blocks)
		return nil
	}, nil)
	sum := 0.0
	for _, c := range caps {
		sum += c
	}
	return sum / float64(trials)
}

// AnalyticBlockDisableCapacity is Eq. 2 for g at pfail — the closed form
// MeasuredBlockDisableCapacity converges to.
func AnalyticBlockDisableCapacity(g geom.Geometry, pfail float64) float64 {
	return prob.ExpectedCapacity(g.CellsPerBlock(), pfail)
}
