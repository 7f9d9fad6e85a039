// Benchmarks: one per table and figure of the paper (see DESIGN.md's
// per-experiment index), plus the ablations the design discussion calls
// for and throughput benches for the main substrates.
//
// The figure benches regenerate each artifact at a reduced Monte Carlo
// scale per iteration (the cmd tools regenerate them at full scale);
// custom metrics report the headline normalized-performance numbers so
// `go test -bench` output doubles as a results table.
package vccmin

import (
	"testing"

	"vccmin/internal/cache"
	"vccmin/internal/experiments"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/overhead"
	"vccmin/internal/pipeline"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/trace"
	"vccmin/internal/workload"
)

// benchSimParams is the reduced per-iteration scale for simulation
// figures. Full scale is DefaultSimParams (26 benchmarks, 50 pairs).
func benchSimParams() experiments.SimParams {
	return experiments.SimParams{
		Benchmarks:   []string{"crafty", "gzip", "swim"},
		FaultPairs:   4,
		Pfail:        0.001,
		Instructions: 30_000,
		BaseSeed:     1,
	}
}

// ---- Fig. 1 ----

func BenchmarkFig1VoltageScaling(b *testing.B) {
	m := power.Default()
	for i := 0; i < b.N; i++ {
		classic := m.CurveClassic(200)
		below := m.CurveBelowVccMin(200)
		if len(classic) == 0 || len(below) == 0 {
			b.Fatal("empty curves")
		}
	}
}

// ---- Table I ----

func BenchmarkTable1Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := overhead.TableI()
		if rows[3].Total != 81920 {
			b.Fatal("block-disable overhead drifted")
		}
	}
}

// ---- Figs. 3-7 (analytic) ----

func BenchmarkFig3FaultyBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(100)
	}
}

func BenchmarkFig4CapacityDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4()
	}
}

func BenchmarkFig5WholeCacheFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(100)
	}
}

func BenchmarkFig6BlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(100)
	}
}

func BenchmarkFig7IncrementalWordDisable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(100)
	}
}

// ---- Figs. 8-10 (low-voltage Monte Carlo) ----

func BenchmarkFig8LowVoltage(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLowVoltage(benchSimParams())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig8()
	}
	b.ReportMetric(fig.Averages[0], "wordDis-norm")
	b.ReportMetric(fig.Averages[1], "blockDis-norm")
	b.ReportMetric(fig.Averages[2], "blockDisVC-norm")
}

func BenchmarkFig9LowVoltageVC(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLowVoltage(benchSimParams())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig9()
	}
	b.ReportMetric(fig.Averages[0], "wordDis-norm")
	b.ReportMetric(fig.Averages[1], "blockDis-norm")
}

func BenchmarkFig10VictimCell(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLowVoltage(benchSimParams())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig10()
	}
	b.ReportMetric(fig.Averages[1], "vc10T-norm")
	b.ReportMetric(fig.Averages[2], "vc6T-norm")
}

// ---- Figs. 11-12 (high voltage) ----

func BenchmarkFig11HighVoltage(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHighVoltage(benchSimParams())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig11()
	}
	b.ReportMetric(fig.Averages[0], "wordDis-norm")
	b.ReportMetric(fig.Averages[1], "blockDis-norm")
}

func BenchmarkFig12HighVoltageVC(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHighVoltage(benchSimParams())
		if err != nil {
			b.Fatal(err)
		}
		fig = res.Fig12()
	}
	b.ReportMetric(fig.Averages[0], "wordDis-norm")
}

// ---- Ablations ----

// BenchmarkAblationVictimEntries sweeps the victim-cache size for
// block-disabling on a conflict-sensitive benchmark: the knee should sit
// near the paper's 16 entries.
func BenchmarkAblationVictimEntries(b *testing.B) {
	g := geom.MustNew(32*1024, 8, 64)
	pair := faults.GeneratePairSparse(g, g, 32, 0.001, 9)
	for _, entries := range []int{0, 4, 8, 16, 32} {
		b.Run(map[bool]string{true: "entries=0"}[entries == 0]+name(entries), func(b *testing.B) {
			machine := sim.Reference(sim.LowVoltage)
			machine.VictimEntries = entries
			var ipc float64
			for i := 0; i < b.N; i++ {
				victim := sim.Victim10T
				if entries == 0 {
					victim = sim.NoVictim
				}
				r, err := sim.Run(sim.Options{
					Benchmark: "gzip", Mode: sim.LowVoltage, Scheme: sim.BlockDisable,
					Victim: victim, Pair: &pair, Machine: &machine, Instructions: 40_000, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

func name(entries int) string {
	if entries == 0 {
		return ""
	}
	return "entries=" + string(rune('0'+entries/10)) + string(rune('0'+entries%10))
}

// BenchmarkAblationBlockSizePrefetch measures the Fig. 6 trade-off
// end-to-end: 32 B blocks keep more capacity under faults but lose
// spatial locality; next-line prefetching wins part of it back (the
// paper's Section IV.B discussion).
func BenchmarkAblationBlockSizePrefetch(b *testing.B) {
	for _, cfg := range []struct {
		label    string
		block    int
		prefetch bool
	}{
		{"64B", 64, false},
		{"32B", 32, false},
		{"32B-prefetch", 32, true},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			machine := sim.Reference(sim.LowVoltage)
			machine.L1BlockBytes = cfg.block
			g := geom.MustNew(machine.L1Size, machine.L1Ways, cfg.block)
			pair := faults.GeneratePairSparse(g, g, 32, 0.001, 11)
			var ipc, cap float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(sim.Options{
					Benchmark: "swim", Mode: sim.LowVoltage, Scheme: sim.BlockDisable,
					Pair: &pair, Machine: &machine, Instructions: 40_000, Seed: 1,
					PrefetchNextLine: cfg.prefetch,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipc, cap = r.IPC, r.DCapacity
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(cap, "capacity")
		})
	}
}

// BenchmarkAblationL2BlockDisable extends block-disabling to the L2
// (the paper's future work): the L2's much larger block population keeps
// its capacity loss mild at pfail=0.001.
func BenchmarkAblationL2BlockDisable(b *testing.B) {
	g1 := geom.MustNew(32*1024, 8, 64)
	g2 := geom.MustNew(2*1024*1024, 8, 64)
	pair := faults.GeneratePairSparse(g1, g1, 32, 0.001, 13)
	l2map := faults.GeneratePairSparse(g2, g2, 32, 0.001, 13).I
	for _, cfg := range []struct {
		label string
		l2    *faults.Map
	}{
		{"L1-only", nil},
		{"L1+L2", l2map},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(sim.Options{
					Benchmark: "mcf", Mode: sim.LowVoltage, Scheme: sim.BlockDisable,
					Pair: &pair, L2Map: cfg.l2, Instructions: 40_000, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationClusteredFaults compares block-disable capacity under
// the uniform and clustered fault models at matched fault rates.
func BenchmarkAblationClusteredFaults(b *testing.B) {
	g := geom.MustNew(32*1024, 8, 64)
	for i := 0; i < b.N; i++ {
		u := NewFaultMap(g, 0.002, int64(i))
		c := NewClusteredFaultMap(g, 0.002, 8, int64(i))
		if u.CapacityFraction() > c.CapacityFraction() {
			continue // clustered keeps more capacity virtually always
		}
	}
}

// ---- Substrate throughput ----

// newCache is cache.New for a fixed hierarchy; it fails the benchmark
// on an error.
func newCache(tb testing.TB, name string, g geom.Geometry, hitLatency int, next cache.Level) *cache.Cache {
	tb.Helper()
	c, err := cache.New(name, g, hitLatency, next)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkCacheAccess(b *testing.B) {
	mem := &cache.Memory{Latency: 51}
	l2 := newCache(b, "L2", geom.MustNew(2*1024*1024, 8, 64), 20, mem)
	l1 := newCache(b, "L1", geom.MustNew(32*1024, 8, 64), 3, l2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(geom.Addr(uint64(i)*64)&(1<<22-1), cache.Read)
	}
}

// BenchmarkCacheAccessMix drives the same L1/L2 pair as
// BenchmarkCacheAccess with the data-side loads and stores of a
// recorded gcc stream, in program order, so hits and misses come in the
// mix a core issues; BenchmarkCacheAccess's 4 MB stride misses every
// level on every access. The caches are warmed with one pass over the
// stream before timing, and the metric reports the timed accesses' L1
// hit ratio.
func BenchmarkCacheAccessMix(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 18
	var rec workload.Recording
	if err := rec.Record(prof, 1, n); err != nil {
		b.Fatal(err)
	}
	type access struct {
		addr geom.Addr
		kind cache.Kind
	}
	var stream []access
	rp := rec.Replay()
	var ins trace.Instr
	for i := 0; i < n; i++ {
		rp.Next(&ins)
		switch ins.Class {
		case trace.Load:
			stream = append(stream, access{geom.Addr(ins.Addr), cache.Read})
		case trace.Store:
			stream = append(stream, access{geom.Addr(ins.Addr), cache.Write})
		}
	}
	mem := &cache.Memory{Latency: 51}
	l2 := newCache(b, "L2", geom.MustNew(2*1024*1024, 8, 64), 20, mem)
	l1 := newCache(b, "L1", geom.MustNew(32*1024, 8, 64), 3, l2)
	for _, a := range stream {
		l1.Access(a.addr, a.kind)
	}
	l1.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i%len(stream)]
		l1.Access(a.addr, a.kind)
	}
	b.StopTimer()
	b.ReportMetric(float64(l1.Stats.Hits)/float64(l1.Stats.Accesses), "l1d_hit_ratio")
}

func BenchmarkFaultMapGeneration(b *testing.B) {
	g := geom.MustNew(32*1024, 8, 64)
	for i := 0; i < b.N; i++ {
		NewFaultMap(g, 0.001, int64(i))
	}
}

// ---- Monte Carlo capacity estimation (the sparse fast path end to end) ----

// benchCapacityTrials sizes the estimator benches: enough draws to
// amortize pool start-up, small enough for a smoke-scale gate run.
const benchCapacityTrials = 32

// BenchmarkMeasuredCapacitySparseParallel is the shipped estimator:
// sparse sampling, per-worker map reuse, all CPUs.
func BenchmarkMeasuredCapacitySparseParallel(b *testing.B) {
	g := geom.MustNew(32*1024, 8, 64)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = MeasuredBlockDisableCapacity(g, 0.001, benchCapacityTrials, 1)
	}
	b.ReportMetric(sink, "capacity")
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	var ins trace.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&ins)
	}
}

// BenchmarkPipelineThroughput reports simulated instructions per second —
// the cost of one out-of-order core cycle model step.
func BenchmarkPipelineThroughput(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	mem := &cache.Memory{Latency: 51}
	l2 := newCache(b, "L2", geom.MustNew(2*1024*1024, 8, 64), 20, mem)
	ic := newCache(b, "IL1", geom.MustNew(32*1024, 8, 64), 3, l2)
	dc := newCache(b, "DL1", geom.MustNew(32*1024, 8, 64), 3, l2)
	cpu, err := pipeline.New(pipeline.TableII(), ic, dc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cpu.Run(gen, b.N)
}

// BenchmarkEq1UrnModel measures the exact Eq. 1 evaluation.
func BenchmarkEq1UrnModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prob.MeanFaultyBlocksExact(512, 537, 275)
	}
}

// BenchmarkExtensionBitFix regenerates the bit-fix vs word-disable
// whole-cache-failure comparison (extension figure).
func BenchmarkExtensionBitFix(b *testing.B) {
	var series []prob.Series
	for i := 0; i < b.N; i++ {
		series = experiments.FigBitFix(100)
	}
	_ = series
}

// BenchmarkExtensionGranularity regenerates the block/set/way disabling
// capacity comparison (extension figure).
func BenchmarkExtensionGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.FigGranularity(100)
	}
}
