package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vccmin/internal/core"
	"vccmin/internal/dvfs"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/pipeline"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/stats"
	"vccmin/internal/sweep"
	"vccmin/internal/trace"
	"vccmin/internal/workload"
)

// A sweep chunk is one pfail value across the rest of the grid: 4
// schemes × 2 L1 geometries × (2 classic granularities + 1 oracle DVFS
// cell) = 24 cells. Every chunk holds the same mix of cell kinds, and a
// run measures whole chunks only, so per-cell percentiles see the same
// composition in every run. The two granularities put two thirds of
// the cells on the classic path, which keeps the median inside one
// cost cluster instead of on the edge between two.
var (
	sweepGeoms    = []geom.Geometry{geom.MustNew(32*1024, 8, 64), geom.MustNew(16*1024, 4, 64)}
	sweepSchemes  = []sim.Scheme{sim.BlockDisable, sim.WordDisable, sim.IncrementalWordDisable, sim.BitFix}
	sweepGrans    = []prob.Granularity{prob.GranularityBlock, prob.GranularityWay}
	sweepPolicies = []dvfs.PolicyKind{dvfs.PolicyNone, dvfs.PolicyOracle}
	sweepBenches  = []string{"crafty", "mcf", "gzip"}
)

// The first chunk of every run is the reference chunk: a fixed pfail
// and base seed, so the simulated statistics the traced run reports
// from it repeat bit for bit in every run of every seed.
const (
	refPfail    = 1e-3
	refBaseSeed = 1
)

func chunkSpec(pfail float64, baseSeed int64) sweep.Spec {
	return sweep.Spec{
		Pfails:        []float64{pfail},
		Geometries:    sweepGeoms,
		Schemes:       sweepSchemes,
		Granularities: sweepGrans,
		Policies:      sweepPolicies,
		Benchmarks:    sweepBenches,
		BaseSeed:      baseSeed,
		Workers:       1,
	}
}

// sweepChunks yields the seeded chunk sequence: the reference chunk,
// then pfail drawn log-uniformly from [1e-4, 2e-3] (three significant
// digits) with a fresh base seed per chunk.
func sweepChunks(seed int64) func(i int) sweep.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []sweep.Spec
	return func(i int) sweep.Spec {
		for len(specs) <= i {
			if len(specs) == 0 {
				specs = append(specs, chunkSpec(refPfail, refBaseSeed))
				continue
			}
			p := math.Exp(math.Log(1e-4) + rng.Float64()*(math.Log(2e-3)-math.Log(1e-4)))
			p, _ = strconv.ParseFloat(strconv.FormatFloat(p, 'g', 3, 64), 64)
			specs = append(specs, chunkSpec(p, rng.Int63n(1<<40)+1))
		}
		return specs[i]
	}
}

type sweepState struct {
	dir  string
	ckpt *os.File
}

// setupSweep creates the checkpoint file and evaluates the reference
// chunk's classic word-disable cells (both geometries, both
// granularities), so code paths and the allocator are warm before
// timing and set-up time covers a fixed amount of simulation.
func setupSweep(e *env, i int) (*sweepState, func(), error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("sweep-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	f, err := os.Create(filepath.Join(dir, "rows.jsonl"))
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	st := &sweepState{dir: dir, ckpt: f}
	spec := chunkSpec(refPfail, refBaseSeed)
	for _, c := range spec.WithDefaults().Cells() {
		if c.Scheme == sim.WordDisable && c.Policy == dvfs.PolicyNone {
			if _, err := spec.EvaluateCell(c); err != nil {
				f.Close()
				cleanup()
				return nil, nil, err
			}
		}
	}
	return st, func() { f.Close(); cleanup() }, nil
}

func runSweep(e *env) (*report, error) {
	oneProc()
	st, cleanup, setupS, err := setupMedian(setupRuns, func(i int, _ func(func())) (*sweepState, func(), error) { return setupSweep(e, i) })
	if err != nil {
		return nil, err
	}
	defer cleanup()

	rep := &report{metrics: map[string]float64{"setup_s": setupS}}
	nextSpec := sweepChunks(e.seed)
	dg := newDigest()
	var (
		cellMS  []float64
		cellDur []time.Duration
		rates   []float64 // cells per second, per chunk
		mem     memDelta
		rb      = &rebuilder{dir: st.dir}
		start   = time.Now()
	)
	// Two chunks at least: the digest covers the reference chunk and the
	// first seeded one; the traced run needs only the reference chunk.
	minChunks := 2
	if e.traced {
		minChunks = 1
	}
	for chunk := 0; ; chunk++ {
		if chunk >= minChunks && time.Since(start) >= e.seconds {
			break
		}
		if err := e.ctx.Err(); err != nil {
			return rep, err
		}
		spec := nextSpec(chunk)
		cells := spec.WithDefaults().Cells()
		var times []time.Duration
		m0 := memNow()
		t0 := time.Now()
		last := t0
		res, err := sweep.Run(spec, sweep.RunOptions{
			Out:     st.ckpt,
			Context: e.ctx,
			Workers: 1,
			OnProgress: func(sweep.Progress) {
				now := time.Now()
				times = append(times, now.Sub(last))
				last = now
			},
		})
		rates = append(rates, float64(len(cells))/time.Since(t0).Seconds())
		mem = mem.plus(memNow().since(m0))
		rep.attempted += len(cells)
		if err != nil {
			rep.fail("chunk %d: %v", chunk, err)
			return rep, nil
		}
		if len(res.Rows) != len(cells) || len(times) != len(cells) {
			rep.fail("chunk %d: %d rows for %d cells", chunk, len(res.Rows), len(cells))
			continue
		}
		for i, row := range res.Rows {
			cellMS = append(cellMS, ms(times[i]))
			cellDur = append(cellDur, times[i])
			if msg := checkRow(row, cells[i]); msg != "" {
				rep.fail("chunk %d: %s", chunk, msg)
			}
			b, err := json.Marshal(row)
			if err != nil {
				rep.fail("chunk %d: %v", chunk, err)
				continue
			}
			if chunk < 2 {
				dg.add(row.Key, b)
			}
			if e.traced {
				op := int64(len(cellDur))
				cellEnd := t0
				for _, d := range times[:i+1] {
					cellEnd = cellEnd.Add(d)
				}
				tracer.add(active{id: tracer.nextID.Add(1), op: op, name: "sweep.run_cell", start: cellEnd.Add(-times[i])}, cellEnd)
				if err := rb.rebuild(spec, cells[i], op, chunk == 0, b); err != nil {
					rep.fail("chunk %d cell %s: %v", chunk, row.Key, err)
				}
			}
		}
	}
	if !e.traced {
		// The traced run may stop after the reference chunk, so only the
		// untraced run reports the digest.
		rep.digest = dg.sum()
	}
	if err := st.ckpt.Sync(); err != nil {
		return rep, err
	}
	if msg := checkCheckpoint(st.ckpt.Name(), len(cellDur)); msg != "" {
		rep.fail("%s", msg)
	}

	if e.traced {
		rb.metrics(rep.metrics, cellDur)
		runtimeMetrics(rep.metrics, mem, len(cellDur))
		throughput(rep.metrics, rates)
		return rep, nil
	}
	return rep, endToEndMetrics(rep.metrics, cellMS)
}

// checkRow holds for any seed: the row is the cell's, and both
// capacities are fractions.
func checkRow(row sweep.Row, c sweep.Cell) string {
	switch {
	case row.Key != c.Key() || row.Index != c.Index:
		return fmt.Sprintf("row %q/%d for cell %q/%d", row.Key, row.Index, c.Key(), c.Index)
	case !(row.ExpectedCapacity >= 0 && row.ExpectedCapacity <= 1):
		return fmt.Sprintf("%s: expected capacity %v outside [0,1]", row.Key, row.ExpectedCapacity)
	case !(row.MeasuredCapacity >= 0 && row.MeasuredCapacity <= 1):
		return fmt.Sprintf("%s: measured capacity %v outside [0,1]", row.Key, row.MeasuredCapacity)
	case c.Policy == dvfs.PolicyNone && !(row.MeanIPC > 0):
		return fmt.Sprintf("%s: mean IPC %v", row.Key, row.MeanIPC)
	}
	return ""
}

// checkCheckpoint reads the JSONL checkpoint back: one row per cell.
func checkCheckpoint(path string, want int) string {
	f, err := os.Open(path)
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	rows, err := sweep.ReadRows(f)
	if err != nil {
		return "checkpoint: " + err.Error()
	}
	if len(rows) != want {
		return fmt.Sprintf("checkpoint holds %d rows, %d cells ran", len(rows), want)
	}
	return ""
}

// rebuilder recomputes sweep cells from the public layer calls, timing
// each call as a span, and checks the rebuilt row is byte-identical to
// the one sweep.Run wrote. It repeats sweep's cell evaluation step for
// step: the same seeds, the same warmup, then the measured CPU.Run.
type rebuilder struct {
	dir string
	f   *os.File
	out *bufio.Writer

	probeInstr uint64 // instructions the generator-alone probe replayed

	// Simulated statistics over the reference chunk's measured windows.
	refInstr, refL1DMiss, refL2Miss uint64
	refIPC                          []float64
}

func (rb *rebuilder) rebuild(spec sweep.Spec, c sweep.Cell, op int64, ref bool, want []byte) error {
	if rb.f == nil {
		f, err := os.Create(filepath.Join(rb.dir, "rebuilt.jsonl"))
		if err != nil {
			return err
		}
		rb.f, rb.out = f, bufio.NewWriter(f)
	}
	cell := tracer.begin("sweep.cell", op, 0)
	row, err := rb.evaluate(spec.WithDefaults(), c, op, cell.id, ref)
	if err != nil {
		return err
	}
	var b []byte
	tracer.timed("sweep.row_write", op, cell.id, func() {
		b, err = json.Marshal(&row)
		if err == nil {
			_, err = rb.out.Write(append(b, '\n'))
		}
		if err == nil {
			err = rb.out.Flush()
		}
	})
	tracer.end(cell)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("rebuilt row differs from sweep.Run's:\n  got  %s\n  want %s", b, want)
	}
	return nil
}

// evaluate mirrors sweep's cell evaluation through the public calls.
func (rb *rebuilder) evaluate(s sweep.Spec, c sweep.Cell, op, parent int64, ref bool) (sweep.Row, error) {
	key := c.Key()
	seed := faults.DeriveSeed(s.BaseSeed, key)
	row := sweep.Row{
		Key: key, Index: c.Index, Stream: sweep.StreamVersion,
		Pfail:    c.Pfail,
		GeomSize: c.Geometry.SizeBytes, GeomWays: c.Geometry.Ways, GeomBlock: c.Geometry.BlockBytes,
		Scheme: c.Scheme.String(), Victim: c.Victim.String(), Granularity: c.Granularity.String(),
		Seed:       seed,
		Benchmarks: len(s.Benchmarks),
	}
	tracer.timed("analytics", op, parent, func() {
		row.ExpectedCapacity = prob.GranularityCapacity(c.Geometry, c.Granularity, c.Pfail)
		if c.Scheme == sim.WordDisable {
			row.WholeCacheFailProb = prob.WordDisableWholeCacheFailProb(
				c.Geometry.Blocks(), c.Geometry.BlockBytes, 32, 8, c.Pfail)
		}
		pt := power.Default().OperatingPointForPfail(c.Pfail)
		row.Voltage, row.Frequency = pt.Voltage, pt.Freq
		row.EnergyPerInstruction = power.EnergyPerWork(pt)
	})
	if c.Policy != dvfs.PolicyNone {
		return rb.evaluateDVFS(s, c, row, seed, op, parent)
	}

	machine := sim.Reference(sim.LowVoltage)
	machine.L1Size, machine.L1Ways, machine.L1BlockBytes = c.Geometry.SizeBytes, c.Geometry.Ways, c.Geometry.BlockBytes
	faultDependent := c.Scheme == sim.BlockDisable || c.Scheme == sim.IncrementalWordDisable
	simTrials, pairTrials := 1, 0
	if faultDependent {
		simTrials, pairTrials = s.Trials, s.Trials
	} else if c.Scheme == sim.WordDisable {
		pairTrials = s.Trials
	}
	row.Trials = max(simTrials, pairTrials)

	pairs := make([]faults.Pair, pairTrials)
	wdCfg := core.ReferenceWordDisable()
	for t := range pairs {
		pairSeed := faults.DeriveSeed(seed, "pair", strconv.Itoa(t))
		tracer.timed("faults.pair_draw", op, parent, func() {
			pairs[t] = faults.GeneratePairSparse(c.Geometry, c.Geometry, 32, c.Pfail, pairSeed)
		})
		if c.Scheme == sim.WordDisable {
			fit := true
			for _, m := range []*faults.Map{pairs[t].I, pairs[t].D} {
				tracer.timed("core.scheme_eval", op, parent, func() { fit = core.EvaluateWordDisable(m, wdCfg).Fit })
				if !fit {
					break
				}
			}
			if !fit {
				row.UnfitTrials++
			}
		}
	}

	var ipcs, baseIPCs, caps []float64
	for _, bench := range s.Benchmarks {
		base := sim.Options{
			Benchmark:    bench,
			Mode:         sim.LowVoltage,
			Instructions: s.Instructions,
			Seed:         faults.DeriveSeed(seed, "workload", bench),
			Machine:      &machine,
		}
		r, err := rb.simulate(base, op, parent, ref)
		if err != nil {
			return row, err
		}
		baseIPCs = append(baseIPCs, r.ipc)
		for t := 0; t < simTrials; t++ {
			opts := base
			opts.Scheme, opts.Victim = c.Scheme, c.Victim
			if faultDependent {
				opts.Pair = &pairs[t]
			}
			r, err := rb.simulate(opts, op, parent, ref)
			if err != nil {
				return row, err
			}
			ipcs = append(ipcs, r.ipc)
			caps = append(caps, (r.iCap+r.dCap)/2)
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

type simOutcome struct{ ipc, iCap, dCap float64 }

// simulate mirrors one sim.Run: build, warm up, reset the cache
// statistics, then the measured CPU.Run. A shadow span replays the same
// generator alone, so pipeline time can be split from trace generation.
func (rb *rebuilder) simulate(opts sim.Options, op, parent int64, ref bool) (simOutcome, error) {
	warmup := opts.Instructions / 2
	var (
		gen  *workload.Generator
		prof workload.Profile
		err  error
	)
	tracer.timed("workload.new", op, parent, func() {
		prof, err = workload.ByName(opts.Benchmark)
		if err == nil {
			gen, err = workload.NewGenerator(prof, opts.Seed)
		}
	})
	if err != nil {
		return simOutcome{}, err
	}
	// sim.Build runs block-disabling's map builder inside; time the same
	// calls on their own so sim.build_us can report Build's self time.
	if opts.Scheme == sim.BlockDisable && opts.Pair != nil {
		for _, m := range []*faults.Map{opts.Pair.I, opts.Pair.D} {
			tracer.shadow("core.scheme_eval", op, parent, func() { core.BuildBlockDisable(m) })
		}
	}
	var sys *sim.System
	tracer.timed("sim.build", op, parent, func() { sys, err = sim.Build(opts) })
	if err != nil {
		return simOutcome{}, err
	}
	var st pipeline.Stats
	tracer.timed("pipeline.run", op, parent, func() {
		sys.CPU.Run(gen, warmup)
		sys.ICache.ResetStats()
		sys.DCache.ResetStats()
		sys.L2.ResetStats()
		sys.Mem.Accesses = 0
	})
	tracer.timed("pipeline.run", op, parent, func() { st = sys.CPU.Run(gen, opts.Instructions) })

	probe, err := workload.NewGenerator(prof, opts.Seed)
	if err != nil {
		return simOutcome{}, err
	}
	var g trace.Generator = probe
	var ins trace.Instr
	n := warmup + opts.Instructions
	tracer.shadow("workload.gen", op, parent, func() {
		for i := 0; i < n; i++ {
			g.Next(&ins)
		}
	})
	rb.probeInstr += uint64(n)

	out := simOutcome{ipc: st.IPC(), iCap: 1, dCap: 1}
	switch opts.Scheme {
	case sim.BlockDisable, sim.IncrementalWordDisable:
		out.iCap = sys.ICache.Enable.CapacityFraction()
		out.dCap = sys.DCache.Enable.CapacityFraction()
	case sim.WordDisable:
		out.iCap, out.dCap = 0.5, 0.5
	case sim.BitFix:
		out.iCap, out.dCap = 0.75, 0.75
	}
	if ref {
		rb.refInstr += st.Instructions
		rb.refL1DMiss += sys.DCache.Stats.Misses
		rb.refL2Miss += sys.L2.Stats.Misses
		rb.refIPC = append(rb.refIPC, out.ipc)
	}
	return out, nil
}

func (rb *rebuilder) evaluateDVFS(s sweep.Spec, c sweep.Cell, row sweep.Row, seed, op, parent int64) (sweep.Row, error) {
	row.Policy = c.Policy.String()
	row.Trials = 1
	row.Benchmarks = len(s.DVFSWorkloads)
	var perfs, epis, switches, lowShares []float64
	for _, name := range s.DVFSWorkloads {
		mp, err := workload.MultiPhaseByName(name)
		if err != nil {
			return row, err
		}
		var res dvfs.Result
		tracer.timed("dvfs.run", op, parent, func() {
			res, err = dvfs.Run(dvfs.Config{
				Workload: mp.Scaled(s.Instructions),
				Scheme:   c.Scheme,
				Victim:   c.Victim,
				Geometry: c.Geometry,
				Pfail:    c.Pfail,
				Policy:   c.Policy,
				Seed:     faults.DeriveSeed(seed, "dvfs", name),
			})
		})
		if err != nil {
			return row, err
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
	sw, ls := stats.Mean(switches), stats.Mean(lowShares)
	row.DVFSSwitches, row.DVFSLowShare = &sw, &ls
	return row, nil
}

// metrics derives the sweep's per-layer metrics from the spans; cells
// are sweep.Run's own (untraced) cell times.
func (rb *rebuilder) metrics(m map[string]float64, cells []time.Duration) {
	if rb.f != nil {
		rb.f.Close()
	}
	var cellTotal time.Duration
	for _, d := range cells {
		cellTotal += d
	}
	n, _ := tracer.stat("faults.pair_draw")
	m["faults.pair_draws"] = float64(n)
	m["faults.pair_draw_us"] = tracer.meanUS("faults.pair_draw")
	n, _ = tracer.stat("core.scheme_eval")
	m["core.scheme_evals"] = float64(n)
	m["core.scheme_eval_us"] = tracer.meanUS("core.scheme_eval")

	builds, build := tracer.stat("sim.build")
	_, inBuild := tracer.sum(func(s span) bool { return s.Name == "core.scheme_eval" && s.Shadow })
	if builds > 0 {
		m["sim.build_us"] = us(build-inBuild) / float64(builds)
	}
	_, gen := tracer.stat("workload.gen")
	_, run := tracer.stat("pipeline.run")
	if rb.probeInstr > 0 {
		m["workload.gen_ns_per_instr"] = float64(gen) / float64(rb.probeInstr)
		m["pipeline.self_ns_per_instr"] = float64(run-gen) / float64(rb.probeInstr)
		m["pipeline.minstr_per_s"] = float64(rb.probeInstr) / run.Seconds() / 1e6
	}
	m["pipeline.instructions"] = float64(rb.refInstr)
	m["pipeline.ipc_mean"] = stats.Mean(rb.refIPC)
	if rb.refInstr > 0 {
		m["cache.l1d_mpki"] = float64(rb.refL1DMiss) * 1000 / float64(rb.refInstr)
		m["cache.l2_mpki"] = float64(rb.refL2Miss) * 1000 / float64(rb.refInstr)
	}
	n, _ = tracer.stat("dvfs.run")
	m["dvfs.runs"] = float64(n)
	m["dvfs.run_ms"] = tracer.meanUS("dvfs.run") / 1000
	m["sweep.row_write_us"] = tracer.meanUS("sweep.row_write")

	// Coverage: the layer calls a rebuilt cell makes (shadow probes
	// excluded) over sweep.Run's time for the same cells.
	_, layers := tracer.sum(func(s span) bool {
		return !s.Shadow && s.Parent != 0 && s.Name != "sweep.run_cell"
	})
	_, rebuilt := tracer.stat("sweep.cell")
	_, shadows := tracer.sum(func(s span) bool { return s.Shadow })
	if cellTotal > 0 {
		m["sweep.layer_coverage"] = float64(layers) / float64(cellTotal)
		m["trace.overhead"] = float64(rebuilt-shadows)/float64(cellTotal) - 1
	}
}
