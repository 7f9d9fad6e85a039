package population

import (
	"slices"
	"testing"

	"vccmin/internal/sim"
)

// BenchmarkFleetDieVccmin measures one die end to end: multiplier +
// fault-population draw, then resolving the Vcc-min grid step under
// the two default schemes from their kill severities. This is the
// fleet sweep's unit of work.
func BenchmarkFleetDieVccmin(b *testing.B) {
	spec := FleetSpec{Seed: 7}.WithDefaults()
	p := newProber(spec)
	steps := make([]int, len(spec.Schemes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := i % 1024
		p.draw(d)
		p.gridSteps(steps)
	}
}

// BenchmarkKillPass times the kill pass and step scan alone, per die,
// on 64 pre-drawn default-geometry populations: under the two default
// schemes, and under all five, where incremental word-disable sends
// every block holding a data fault through endBlock.
func BenchmarkKillPass(b *testing.B) {
	for _, bc := range []struct {
		name    string
		schemes []sim.Scheme
	}{{"default", nil}, {"all", allSchemes}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := FleetSpec{Seed: 7, Schemes: bc.schemes}.WithDefaults()
			p := newProber(spec)
			var dies [][]latentFault
			var mults, pflrs []float64
			for d := 0; d < 64; d++ {
				p.draw(d)
				dies = append(dies, slices.Clone(p.flt))
				mults, pflrs = append(mults, p.mult), append(pflrs, p.pflr)
			}
			steps := make([]int, len(spec.Schemes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := i % len(dies)
				p.flt, p.mult, p.pflr = dies[d], mults[d], pflrs[d]
				p.gridSteps(steps)
			}
		})
	}
}

// BenchmarkFleetSweepSmall measures a 512-die fleet sweep single
// threaded, including the per-scheme reductions — the stable (no
// scheduler noise) smoke number for the bench-regression gate.
func BenchmarkFleetSweepSmall(b *testing.B) {
	spec := FleetSpec{Dies: 512, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFleet(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSweepAllSchemes is BenchmarkFleetSweepSmall with every
// die certified under all five schemes: with incremental word-disable
// requested, the kill pass visits every block that holds a data fault.
func BenchmarkFleetSweepAllSchemes(b *testing.B) {
	spec := FleetSpec{Dies: 512, Seed: 7, Workers: 1, Schemes: []sim.Scheme{
		sim.Baseline, sim.BlockDisable, sim.WordDisable, sim.BitFix, sim.IncrementalWordDisable,
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFleet(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDie measures one die's prediction: bracket checks
// plus a shared 40-deep bisection yielding the K-budget estimate and
// the ground truth.
func BenchmarkPredictDie(b *testing.B) {
	spec := FleetSpec{Seed: 7}.WithDefaults()
	p := newProber(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.draw(i % 1024)
		_, _ = p.estimateAndTruth(sim.BlockDisable, 6)
	}
}
