package experiments

import (
	"vccmin/internal/core"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/par"
	"vccmin/internal/sim"
	"vccmin/internal/stats"
	"vccmin/internal/workload"
)

// SimParams configures the simulation experiments (Section V defaults:
// 26 benchmarks, 50 fault-map pairs, pfail = 0.001).
type SimParams struct {
	Benchmarks   []string
	FaultPairs   int
	Pfail        float64
	Instructions int
	BaseSeed     int64
	Parallelism  int // worker goroutines; 0 = GOMAXPROCS
}

// DefaultSimParams returns the paper's experimental setup with a
// reproduction-friendly instruction budget (the paper runs 100 M per
// benchmark; stationary synthetic workloads converge much sooner).
func DefaultSimParams() SimParams {
	return SimParams{
		Benchmarks:   workload.Names(),
		FaultPairs:   50,
		Pfail:        0.001,
		Instructions: 200_000,
		BaseSeed:     1,
	}
}

func (p SimParams) withDefaults() SimParams {
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = workload.Names()
	}
	if p.FaultPairs <= 0 {
		p.FaultPairs = 50
	}
	if p.Pfail <= 0 {
		p.Pfail = 0.001
	}
	if p.Instructions <= 0 {
		p.Instructions = 200_000
	}
	return p
}

// pairs draws the experiment's fault-map pairs on the sparse fast path,
// fanned out over Parallelism workers: pair i uses seed BaseSeed+i,
// shared across benchmarks and configurations so comparisons see
// identical fault patterns. Each pair lands in its own slot, so the
// slice is identical for every parallelism level.
func (p SimParams) pairs() []faults.Pair {
	g := geom.MustNew(32*1024, 8, 64)
	out := make([]faults.Pair, p.FaultPairs)
	// fn never fails, so neither does Do.
	_ = par.Do(len(out), p.Parallelism, nil, func(_ struct{}, i int) error {
		out[i] = faults.GeneratePairSparse(g, g, 32, p.Pfail, p.BaseSeed+int64(i))
		return nil
	}, nil)
	return out
}

// BenchLowVoltage holds every low-voltage measurement for one benchmark.
// All values are raw IPCs; the Fig8/Fig9/Fig10 views normalize them.
type BenchLowVoltage struct {
	Name string

	BaselineIPC   float64 // 32KB 8-way, no victim cache
	BaselineVCIPC float64 // with 16-entry 10T victim cache

	WordDisableIPC   float64 // 16KB 4-way latency 4
	WordDisableVCIPC float64

	BlockDisable     []float64 // per fault pair
	BlockDisableVC   []float64 // with 10T victim cache (16 entries)
	BlockDisableVC6T []float64 // with 6T victim cache (8 usable entries)
}

// LowVoltageResults carries the full low-voltage Monte Carlo.
type LowVoltageResults struct {
	Params     SimParams
	Benchmarks []BenchLowVoltage

	// WordDisableUnfit counts fault pairs whose I- or D-map renders a
	// word-disabled cache unusable (whole-cache failure, Fig. 5's event).
	WordDisableUnfit int
}

// RunLowVoltage executes the paper's low-voltage experiments: for every
// benchmark, the baseline (with and without victim cache), word-disabling
// (with and without), and block-disabling under FaultPairs random fault
// maps with each victim-cache option.
func RunLowVoltage(p SimParams) (*LowVoltageResults, error) {
	p = p.withDefaults()
	pairs := p.pairs()

	res := &LowVoltageResults{Params: p, Benchmarks: make([]BenchLowVoltage, len(p.Benchmarks))}
	wdCfg := core.ReferenceWordDisable()
	for _, pr := range pairs {
		if !core.EvaluateWordDisable(pr.I, wdCfg).Fit || !core.EvaluateWordDisable(pr.D, wdCfg).Fit {
			res.WordDisableUnfit++
		}
	}

	err := p.simulate(sim.LowVoltage, func(bi int, base sim.Options, jobs *ipcJobs) {
		b := &res.Benchmarks[bi]
		b.Name = base.Benchmark
		b.BlockDisable = make([]float64, len(pairs))
		b.BlockDisableVC = make([]float64, len(pairs))
		b.BlockDisableVC6T = make([]float64, len(pairs))

		o := base
		jobs.add(&b.BaselineIPC, o)
		o = base
		o.Victim = sim.Victim10T
		jobs.add(&b.BaselineVCIPC, o)
		o = base
		o.Scheme = sim.WordDisable
		jobs.add(&b.WordDisableIPC, o)
		o = base
		o.Scheme = sim.WordDisable
		o.Victim = sim.Victim10T
		jobs.add(&b.WordDisableVCIPC, o)
		for pi := range pairs {
			pair := pairs[pi]
			o = base
			o.Scheme = sim.BlockDisable
			o.Pair = &pair
			jobs.add(&b.BlockDisable[pi], o)
			o.Victim = sim.Victim10T
			jobs.add(&b.BlockDisableVC[pi], o)
			o.Victim = sim.Victim6T
			jobs.add(&b.BlockDisableVC6T[pi], o)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FigRow is one benchmark's bars in a performance figure; values are
// normalized to the figure's baseline.
type FigRow struct {
	Benchmark string
	Values    []float64
}

// Figure is a rendered paper figure: named series over the benchmarks,
// plus their across-benchmark averages.
type Figure struct {
	Title    string
	Series   []string
	Rows     []FigRow
	Averages []float64
}

// averageColumn computes the arithmetic mean of column s over rows, the
// aggregate the paper quotes ("average 11.2% performance loss").
func (f *Figure) computeAverages() {
	if len(f.Rows) == 0 {
		return
	}
	n := len(f.Series)
	f.Averages = make([]float64, n)
	for s := 0; s < n; s++ {
		col := make([]float64, 0, len(f.Rows))
		for _, r := range f.Rows {
			col = append(col, r.Values[s])
		}
		f.Averages[s] = stats.Mean(col)
	}
}

// Fig8 renders Fig. 8: low-voltage performance normalized to the baseline
// WITHOUT victim cache. Series: word disabling; block disabling avg;
// block disabling avg + V$ 10T; block disabling min; block disabling min +
// V$ 10T.
func (r *LowVoltageResults) Fig8() Figure {
	f := Figure{
		Title: "Fig. 8: below Vcc-min, normalized to baseline without victim cache",
		Series: []string{
			"word disabling",
			"block disabling avg",
			"block disabling avg+V$ 10T",
			"block disabling min",
			"block disabling min+V$ 10T",
		},
	}
	for _, b := range r.Benchmarks {
		base := b.BaselineIPC
		f.Rows = append(f.Rows, FigRow{Benchmark: b.Name, Values: []float64{
			b.WordDisableIPC / base,
			stats.Mean(b.BlockDisable) / base,
			stats.Mean(b.BlockDisableVC) / base,
			stats.Min(b.BlockDisable) / base,
			stats.Min(b.BlockDisableVC) / base,
		}})
	}
	f.computeAverages()
	return f
}

// Fig9 renders Fig. 9: low-voltage performance with every configuration
// (including the baseline) backed by a 10T victim cache. Series: word
// disabling; block disabling avg; block disabling min.
func (r *LowVoltageResults) Fig9() Figure {
	f := Figure{
		Title: "Fig. 9: below Vcc-min, normalized to baseline with victim cache (10T cells)",
		Series: []string{
			"word disabling",
			"block disabling avg",
			"block disabling min",
		},
	}
	for _, b := range r.Benchmarks {
		base := b.BaselineVCIPC
		f.Rows = append(f.Rows, FigRow{Benchmark: b.Name, Values: []float64{
			b.WordDisableVCIPC / base,
			stats.Mean(b.BlockDisableVC) / base,
			stats.Min(b.BlockDisableVC) / base,
		}})
	}
	f.computeAverages()
	return f
}

// Fig10 renders Fig. 10: the 10T versus 6T victim-cache comparison,
// normalized to the baseline without victim cache. Series: word
// disabling; BD avg + V$ 10T; BD avg + V$ 6T; BD min + V$ 10T; BD min +
// V$ 6T.
func (r *LowVoltageResults) Fig10() Figure {
	f := Figure{
		Title: "Fig. 10: 16-entry victim cache, 10T vs 6T cells",
		Series: []string{
			"word disabling",
			"block disabling avg+V$ 10T",
			"block disabling avg+V$ 6T",
			"block disabling min+V$ 10T",
			"block disabling min+V$ 6T",
		},
	}
	for _, b := range r.Benchmarks {
		base := b.BaselineIPC
		f.Rows = append(f.Rows, FigRow{Benchmark: b.Name, Values: []float64{
			b.WordDisableIPC / base,
			stats.Mean(b.BlockDisableVC) / base,
			stats.Mean(b.BlockDisableVC6T) / base,
			stats.Min(b.BlockDisableVC) / base,
			stats.Min(b.BlockDisableVC6T) / base,
		}})
	}
	f.computeAverages()
	return f
}

// BenchHighVoltage holds the high-voltage measurements for one benchmark.
type BenchHighVoltage struct {
	Name string

	BaselineIPC   float64
	BaselineVCIPC float64

	WordDisableIPC   float64
	WordDisableVCIPC float64

	BlockDisableIPC   float64 // disable bits ignored: equals baseline
	BlockDisableVCIPC float64
}

// HighVoltageResults carries the high-voltage experiments.
type HighVoltageResults struct {
	Params     SimParams
	Benchmarks []BenchHighVoltage
}

// RunHighVoltage executes the Fig. 11/12 experiments: at or above Vcc-min
// every cell is reliable, so no fault maps are involved; word-disabling
// still pays its alignment-network cycle.
func RunHighVoltage(p SimParams) (*HighVoltageResults, error) {
	p = p.withDefaults()
	res := &HighVoltageResults{Params: p, Benchmarks: make([]BenchHighVoltage, len(p.Benchmarks))}

	err := p.simulate(sim.HighVoltage, func(bi int, base sim.Options, jobs *ipcJobs) {
		b := &res.Benchmarks[bi]
		b.Name = base.Benchmark
		o := base
		jobs.add(&b.BaselineIPC, o)
		o = base
		o.Victim = sim.Victim10T
		jobs.add(&b.BaselineVCIPC, o)
		o = base
		o.Scheme = sim.WordDisable
		jobs.add(&b.WordDisableIPC, o)
		o = base
		o.Scheme = sim.WordDisable
		o.Victim = sim.Victim10T
		jobs.add(&b.WordDisableVCIPC, o)
		o = base
		o.Scheme = sim.BlockDisable
		jobs.add(&b.BlockDisableIPC, o)
		o = base
		o.Scheme = sim.BlockDisable
		o.Victim = sim.Victim10T
		jobs.add(&b.BlockDisableVCIPC, o)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig11 renders Fig. 11: high-voltage performance normalized to the
// baseline without victim cache. Series: word disabling; block disabling;
// block disabling + V$ 10T.
func (r *HighVoltageResults) Fig11() Figure {
	f := Figure{
		Title:  "Fig. 11: high voltage, normalized to baseline without victim cache",
		Series: []string{"word disabling", "block disabling", "block disabling+V$ 10T"},
	}
	for _, b := range r.Benchmarks {
		base := b.BaselineIPC
		f.Rows = append(f.Rows, FigRow{Benchmark: b.Name, Values: []float64{
			b.WordDisableIPC / base,
			b.BlockDisableIPC / base,
			b.BlockDisableVCIPC / base,
		}})
	}
	f.computeAverages()
	return f
}

// Fig12 renders Fig. 12: high-voltage performance with victim caches
// everywhere, normalized to the baseline with victim cache. Series: word
// disabling; block disabling.
func (r *HighVoltageResults) Fig12() Figure {
	f := Figure{
		Title:  "Fig. 12: high voltage with victim caches, normalized to baseline with victim cache",
		Series: []string{"word disabling", "block disabling"},
	}
	for _, b := range r.Benchmarks {
		base := b.BaselineVCIPC
		f.Rows = append(f.Rows, FigRow{Benchmark: b.Name, Values: []float64{
			b.WordDisableVCIPC / base,
			b.BlockDisableVCIPC / base,
		}})
	}
	f.computeAverages()
	return f
}
