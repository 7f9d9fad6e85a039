package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"vccmin/internal/core"
	"vccmin/internal/experiments"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/stats"
)

// referenceEvaluate is the frozen per-run cell evaluation: every
// simulated run (the baseline and each trial of each benchmark) builds a
// fresh system and draws its instruction stream live through sim.Run.
// The record-once/replay evaluate must reproduce its rows byte for byte.
// Classic (policy none) cells only: scheduled cells never used sim.Run.
func (s Spec) referenceEvaluate(c Cell) (Row, error) {
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
	row.ExpectedCapacity = prob.GranularityCapacity(c.Geometry, c.Granularity, c.Pfail)
	if c.Scheme == sim.WordDisable {
		row.WholeCacheFailProb = prob.WordDisableWholeCacheFailProb(
			c.Geometry.Blocks(), c.Geometry.BlockBytes, 32, 8, c.Pfail)
	}
	op := power.Default().OperatingPointForPfail(c.Pfail)
	row.Voltage = op.Voltage
	row.Frequency = op.Freq
	row.EnergyPerInstruction = power.EnergyPerWork(op)

	machine := sim.Reference(sim.LowVoltage)
	machine.L1Size = c.Geometry.SizeBytes
	machine.L1Ways = c.Geometry.Ways
	machine.L1BlockBytes = c.Geometry.BlockBytes

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

	var ipcs, baseIPCs, caps []float64
	for _, bench := range s.Benchmarks {
		workSeed := faults.DeriveSeed(seed, "workload", bench)
		base := sim.Options{
			Benchmark:    bench,
			Mode:         sim.LowVoltage,
			Instructions: s.Instructions,
			Seed:         workSeed,
			Machine:      &machine,
		}
		baseIPC, err := experiments.RunIPC(base)
		if err != nil {
			return Row{}, err
		}
		baseIPCs = append(baseIPCs, baseIPC)

		for t := 0; t < simTrials; t++ {
			opts := base
			opts.Scheme = c.Scheme
			opts.Victim = c.Victim
			if faultDependent(c.Scheme) {
				opts.Pair = &pairs[t]
			}
			r, err := sim.Run(opts)
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

// differentialSpec is the battery TestCellDifferential walks: all five
// schemes × every victim kind × two L1 geometries × three pfails, with
// two benchmarks so the recording passes from one benchmark to the next.
func differentialSpec(baseSeed int64) Spec {
	return Spec{
		Pfails:     []float64{1e-4, 7e-4, 2e-3},
		Geometries: []geom.Geometry{geom.MustNew(32*1024, 8, 64), geom.MustNew(16*1024, 4, 64)},
		Schemes: []sim.Scheme{sim.Baseline, sim.WordDisable, sim.BlockDisable,
			sim.IncrementalWordDisable, sim.BitFix},
		Victims:      []sim.VictimKind{sim.NoVictim, sim.Victim10T, sim.Victim6T},
		Benchmarks:   []string{"mcf", "crafty"},
		Trials:       2,
		Instructions: 3_000,
		BaseSeed:     baseSeed,
	}.withDefaults()
}

func marshalRow(t *testing.T, row Row, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCellDifferential holds the record-once/replay cell evaluation
// byte-identical to the frozen per-run one over the whole battery.
func TestCellDifferential(t *testing.T) {
	seeds := []int64{1, 42, 9001}
	if raceEnabled || testing.Short() {
		seeds = seeds[:1]
	}
	cells := 0
	for _, seed := range seeds {
		spec := differentialSpec(seed)
		for _, c := range spec.Cells() {
			row, err := spec.evaluate(c)
			got := marshalRow(t, row, err)
			row, err = spec.referenceEvaluate(c)
			want := marshalRow(t, row, err)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d cell %s:\n got  %s\n want %s", seed, c.Key(), got, want)
			}
			cells++
		}
	}
	if want := len(seeds) * 5 * 3 * 2 * 3; cells != want {
		t.Fatalf("compared %d cells, want %d", cells, want)
	}
}

// TestReplayedCellAllocatesLess pins the memory side of the change: a
// classic cell of the reference shape (three benchmarks, default trials
// and length) allocates fewer bytes than the per-run evaluation, its
// recording buffer included, because the cell's runs recycle one L2
// instead of allocating one each and no run builds a generator.
func TestReplayedCellAllocatesLess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full-length cells")
	}
	spec := Spec{
		Pfails:     []float64{1e-3},
		Geometries: []geom.Geometry{geom.MustNew(32*1024, 8, 64)},
		Schemes:    []sim.Scheme{sim.WordDisable, sim.BlockDisable},
	}.withDefaults()
	allocated := func(eval func(Cell) (Row, error), c Cell) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eval(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range spec.Cells() {
		replayed := allocated(spec.evaluate, c)
		perRun := allocated(spec.referenceEvaluate, c)
		t.Logf("%s: %d bytes replayed, %d per run", c.Scheme, replayed, perRun)
		if replayed >= perRun {
			t.Errorf("%s cell allocated %d bytes, per-run evaluation %d", c.Scheme, replayed, perRun)
		}
	}
}
