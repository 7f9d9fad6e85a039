package sweep

import (
	"fmt"

	"vccmin/internal/core"
	"vccmin/internal/dvfs"
	"vccmin/internal/faults"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/stats"
	"vccmin/internal/workload"
)

// StreamVersion identifies the random-stream family the engine draws
// from. It is stamped into every row and enforced by LoadCompleted, so a
// resume can never silently stitch rows produced by incompatible RNG
// streams into one checkpoint (the PR-3 sparse fast path changed the
// stream; pre-break checkpoints must be rerun, not resumed).
const StreamVersion = "sparse-v1"

// Row is one cell's result, streamed as a JSON line. Field order is fixed:
// rows are compared byte-for-byte across shard layouts, so every value in
// a Row must depend only on the cell coordinates and the base seed — never
// on shard layout, worker scheduling or wall-clock state.
type Row struct {
	Key    string `json:"key"`
	Index  int    `json:"index"`
	Stream string `json:"stream"` // StreamVersion of the run that wrote the row

	Pfail       float64 `json:"pfail"`
	GeomSize    int     `json:"geom_size"`
	GeomWays    int     `json:"geom_ways"`
	GeomBlock   int     `json:"geom_block"`
	Scheme      string  `json:"scheme"`
	Victim      string  `json:"victim"`
	Granularity string  `json:"granularity"`
	Seed        int64   `json:"seed"`

	// Section IV analytics at this cell.
	ExpectedCapacity   float64 `json:"expected_capacity"`
	WholeCacheFailProb float64 `json:"whole_cache_fail_prob,omitempty"`

	// Monte Carlo simulation estimates (mean over benchmarks × trials).
	MeanIPC          float64 `json:"mean_ipc"`
	BaselineIPC      float64 `json:"baseline_ipc"`
	IPCDegradation   float64 `json:"ipc_degradation"`
	MeasuredCapacity float64 `json:"measured_capacity"`
	UnfitTrials      int     `json:"unfit_trials"`

	// Fig. 1 model at the voltage this pfail implies.
	Voltage              float64 `json:"voltage"`
	Frequency            float64 `json:"frequency"`
	EnergyPerInstruction float64 `json:"energy_per_instruction"`

	Trials     int `json:"trials"`
	Benchmarks int `json:"benchmarks"`

	// Phase-aware DVFS fields, present only on scheduled (policy != none)
	// cells: means over the spec's DVFSWorkloads. Omitted on classic
	// rows so they stay byte-identical to pre-axis sweeps; the switch
	// and low-share means are pointers because zero is a legitimate
	// value there (static policies never switch) that plain omitempty
	// would silently drop.
	Policy            string   `json:"policy,omitempty"`
	DVFSPerformance   float64  `json:"dvfs_performance,omitempty"`
	DVFSEnergyPerInst float64  `json:"dvfs_energy_per_instruction,omitempty"`
	DVFSSwitches      *float64 `json:"dvfs_switches,omitempty"`
	DVFSLowShare      *float64 `json:"dvfs_low_share,omitempty"`
}

// faultDependent reports whether the scheme's simulated IPC varies with
// the drawn fault map (if not, one trial per benchmark suffices).
func faultDependent(s sim.Scheme) bool {
	return s == sim.BlockDisable || s == sim.IncrementalWordDisable
}

// EvaluateCell computes one cell of the spec's grid in isolation — the
// single-cell entry point the engine task layer uses. The row is
// byte-identical to the same cell's line in a full sweep: all randomness
// descends from the cell seed, which descends from the cell key and the
// base seed, never from which caller, shard or worker runs it.
func (s Spec) EvaluateCell(c Cell) (Row, error) {
	return s.withDefaults().evaluate(c)
}

// evaluate computes one cell. All randomness descends from the cell seed,
// which descends from the cell key, so the result is independent of which
// shard or worker runs it.
func (s Spec) evaluate(c Cell) (Row, error) {
	key := c.Key()
	seed := faults.DeriveSeed(s.BaseSeed, key)
	row := Row{
		Key:    key,
		Index:  c.Index,
		Stream: StreamVersion,

		Pfail:       c.Pfail,
		GeomSize:    c.Geometry.SizeBytes,
		GeomWays:    c.Geometry.Ways,
		GeomBlock:   c.Geometry.BlockBytes,
		Scheme:      c.Scheme.String(),
		Victim:      c.Victim.String(),
		Granularity: c.Granularity.String(),
		Seed:        seed,

		Benchmarks: len(s.Benchmarks),
	}

	// Analytics: Eq. 2 capacity at the cell's disabling granularity, and
	// the Eq. 4-5 whole-cache-failure probability for word-disabling.
	row.ExpectedCapacity = prob.GranularityCapacity(c.Geometry, c.Granularity, c.Pfail)
	if c.Scheme == sim.WordDisable {
		row.WholeCacheFailProb = prob.WordDisableWholeCacheFailProb(
			c.Geometry.Blocks(), c.Geometry.BlockBytes, 32, 8, c.Pfail)
	}

	// Fig. 1 model: the operating point at the voltage where the failure
	// model reaches this cell's pfail.
	op := power.Default().OperatingPointForPfail(c.Pfail)
	row.Voltage = op.Voltage
	row.Frequency = op.Freq
	row.EnergyPerInstruction = power.EnergyPerWork(op)

	// Scheduled cells run the dvfs engine over the multi-phase workloads
	// instead of the fixed-mode Monte Carlo below; the Section IV
	// analytics and Fig. 1 operating point above still apply.
	if c.Policy != dvfs.PolicyNone {
		return s.evaluateDVFS(c, row, seed)
	}

	machine := sim.Reference(sim.LowVoltage)
	machine.L1Size = c.Geometry.SizeBytes
	machine.L1Ways = c.Geometry.Ways
	machine.L1BlockBytes = c.Geometry.BlockBytes

	// simTrials is the number of simulated trials per benchmark: schemes
	// whose IPC is fault-independent need only one. pairTrials is the
	// number of fault-map pairs drawn; word-disabling still draws the
	// full sample for its whole-cache-fitness statistic. Row.Trials
	// reports the larger — the cell's actual Monte Carlo sample size.
	simTrials, pairTrials := 1, 0
	if faultDependent(c.Scheme) {
		simTrials, pairTrials = s.Trials, s.Trials
	} else if c.Scheme == sim.WordDisable {
		pairTrials = s.Trials
	}
	row.Trials = simTrials
	if pairTrials > row.Trials {
		row.Trials = pairTrials
	}

	// Trial fault maps are shared across benchmarks (the paper's design:
	// every configuration sees identical fault patterns), drawn on the
	// sparse fast path.
	pairs := make([]faults.Pair, pairTrials)
	wdCfg := core.ReferenceWordDisable()
	for t := range pairs {
		pairSeed := faults.DeriveSeed(seed, "pair", itoa(t))
		pairs[t] = faults.GeneratePairSparse(c.Geometry, c.Geometry, 32, c.Pfail, pairSeed)
		if c.Scheme == sim.WordDisable {
			if !core.EvaluateWordDisable(pairs[t].I, wdCfg).Fit ||
				!core.EvaluateWordDisable(pairs[t].D, wdCfg).Fit {
				row.UnfitTrials++
			}
		}
	}

	// Every run of a benchmark — the baseline and each trial — simulates
	// the same instruction stream, so it is drawn once into rec and
	// replayed to each run. The runs share one system's memory through
	// runs: only one machine is alive at a time.
	var (
		rec                  sim.Recording
		runs                 sim.Replayer
		ipcs, baseIPCs, caps []float64
	)
	for _, bench := range s.Benchmarks {
		workSeed := faults.DeriveSeed(seed, "workload", bench)
		base := sim.Options{
			Benchmark:    bench,
			Mode:         sim.LowVoltage,
			Instructions: s.Instructions,
			Seed:         workSeed,
			Machine:      &machine,
		}
		if err := rec.Record(base); err != nil {
			return Row{}, fmt.Errorf("%s %s/%s: %w", bench, base.Scheme, base.Victim, err)
		}
		r, err := runs.Run(base, &rec)
		if err != nil {
			return Row{}, fmt.Errorf("%s %s/%s: %w", bench, base.Scheme, base.Victim, err)
		}
		baseIPCs = append(baseIPCs, r.IPC)

		for t := 0; t < simTrials; t++ {
			opts := base
			opts.Scheme = c.Scheme
			opts.Victim = c.Victim
			if faultDependent(c.Scheme) {
				opts.Pair = &pairs[t]
			}
			r, err := runs.Run(opts, &rec)
			if err != nil {
				return Row{}, wrapCellErr(key, err)
			}
			ipcs = append(ipcs, r.IPC)
			caps = append(caps, (r.ICapacity+r.DCapacity)/2)
		}
	}
	row.MeanIPC = stats.Mean(ipcs)
	row.BaselineIPC = stats.Mean(baseIPCs)
	if row.BaselineIPC > 0 {
		row.IPCDegradation = 1 - row.MeanIPC/row.BaselineIPC
	}
	row.MeasuredCapacity = stats.Mean(caps)
	return row, nil
}

// evaluateDVFS computes a scheduled (policy != none) cell: one dual-mode
// run per DVFS workload, rescaled to the spec's instruction budget, with
// the row reporting workload means. The cell seed roots every run, so
// the row stays a pure function of (key, base seed) like every other.
func (s Spec) evaluateDVFS(c Cell, row Row, seed int64) (Row, error) {
	row.Policy = c.Policy.String()
	row.Trials = 1
	row.Benchmarks = len(s.DVFSWorkloads)

	var perfs, epis, switches, lowShares []float64
	for _, name := range s.DVFSWorkloads {
		mp, err := workload.MultiPhaseByName(name)
		if err != nil {
			return Row{}, wrapCellErr(row.Key, err)
		}
		res, err := dvfs.Run(dvfs.Config{
			Workload: mp.Scaled(s.Instructions),
			Scheme:   c.Scheme,
			Victim:   c.Victim,
			Geometry: c.Geometry,
			Pfail:    c.Pfail,
			Policy:   c.Policy,
			Seed:     faults.DeriveSeed(seed, "dvfs", name),
		})
		if err != nil {
			return Row{}, wrapCellErr(row.Key, err)
		}
		perfs = append(perfs, res.Performance)
		epis = append(epis, res.EnergyPerInstruction)
		switches = append(switches, float64(res.Switches))
		if res.TotalInstructions > 0 {
			lowShares = append(lowShares, float64(res.LowInstructions)/float64(res.TotalInstructions))
		}
	}
	row.DVFSPerformance = stats.Mean(perfs)
	row.DVFSEnergyPerInst = stats.Mean(epis)
	meanSwitches, meanLowShare := stats.Mean(switches), stats.Mean(lowShares)
	row.DVFSSwitches = &meanSwitches
	row.DVFSLowShare = &meanLowShare
	return row, nil
}
