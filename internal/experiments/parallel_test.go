package experiments

import (
	"math"
	"reflect"
	"testing"

	"vccmin/internal/geom"
	"vccmin/internal/prob"
)

// The Monte Carlo executors must be pure functions of their parameters:
// worker count changes wall-clock time, never results. These tests run
// under -race in CI.

// TestMeasuredCapacityWorkerInvariance: the capacity estimate is
// bit-identical at every worker-pool size, matches the analytic Eq. 2
// closed form at scale, and tolerates workers > trials.
func TestMeasuredCapacityWorkerInvariance(t *testing.T) {
	g := geom.MustNew(8*1024, 4, 64)
	const (
		pfail  = 0.001
		trials = 64
		seed   = 77
	)
	want := MeasuredBlockDisableCapacityWorkers(g, pfail, trials, seed, 1)
	for _, workers := range []int{0, 2, 7, 16, trials + 5} {
		if got := MeasuredBlockDisableCapacityWorkers(g, pfail, trials, seed, workers); got != want {
			t.Errorf("workers=%d: capacity %v differs from serial %v", workers, got, want)
		}
	}
	if got := MeasuredBlockDisableCapacity(g, pfail, trials, seed); got != want {
		t.Errorf("default-worker estimate %v differs from serial %v", got, want)
	}
	if analytic := prob.ExpectedCapacity(g.CellsPerBlock(), pfail); math.Abs(want-analytic) > 0.05 {
		t.Errorf("measured capacity %v far from analytic %v", want, analytic)
	}
}

// TestPairsParallelismInvariance: the shared fault-pair sample is
// identical at every parallelism level — each job writes only its own
// slot, and pair seeds do not depend on scheduling.
func TestPairsParallelismInvariance(t *testing.T) {
	base := SimParams{FaultPairs: 12, Pfail: 0.002, BaseSeed: 5}
	serial := base
	serial.Parallelism = 1
	want := serial.withDefaults().pairs()
	for _, par := range []int{2, 8} {
		p := base
		p.Parallelism = par
		if got := p.withDefaults().pairs(); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: fault pairs differ from serial draw", par)
		}
	}
}

// TestFigureDriversWorkerInvariance: the Figs. 8-12 drivers replay one
// recording per benchmark from every worker at once, and every
// measurement must still be bit-identical at every parallelism level.
func TestFigureDriversWorkerInvariance(t *testing.T) {
	base := SimParams{
		Benchmarks:   []string{"mcf", "crafty", "swim"},
		FaultPairs:   3,
		Instructions: 4000,
		BaseSeed:     3,
	}
	type measured struct {
		Low   []BenchLowVoltage
		Unfit int
		High  []BenchHighVoltage
	}
	measure := func(parallelism int) measured {
		p := base
		p.Parallelism = parallelism
		low, err := RunLowVoltage(p)
		if err != nil {
			t.Fatal(err)
		}
		high, err := RunHighVoltage(p)
		if err != nil {
			t.Fatal(err)
		}
		return measured{low.Benchmarks, low.WordDisableUnfit, high.Benchmarks}
	}
	want := measure(1)
	for _, parallelism := range []int{2, 8} {
		if got := measure(parallelism); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: figure measurements differ from serial\n got %+v\nwant %+v", parallelism, got, want)
		}
	}
}
