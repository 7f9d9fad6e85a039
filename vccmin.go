// Package vccmin reproduces "Performance-Effective Operation below
// Vcc-min" (Ladas, Sazeides, Desmet — ISPASS 2010): probability analysis
// of random SRAM cell faults in caches, the block-disabling scheme it
// motivates, the word-disabling scheme it compares against, victim
// caching, and the full simulation apparatus (out-of-order core, cache
// hierarchy, synthetic SPEC CPU 2000 workloads) needed to regenerate every
// figure and table of the paper's evaluation.
//
// The package is a facade: it re-exports the library's stable surface from
// the internal packages. It is the module's only importable package and
// its supported library API, so every exported func stays whether or not
// a CLI or example calls it; the reachability check (`make reachcheck`)
// roots them all. Three layers are exposed:
//
//   - Analysis: the closed-form fault-distribution mathematics of Section
//     IV (Eqs. 1-6) — capacity of block-disabling, whole-cache-failure of
//     word-disabling, incremental word-disabling, block-size sensitivity —
//     plus the Table I transistor-overhead accounting and the Fig. 1
//     voltage/power/performance model.
//
//   - Mechanism: fault-map generation (uniform and clustered), the
//     disabling schemes applied to concrete maps, and the cache/victim
//     cache structures that honor them.
//
//   - Evaluation: Table II/III machine assembly, per-benchmark synthetic
//     workloads, single simulation runs, and the Monte Carlo experiment
//     drivers that regenerate Figs. 8-12.
//
// Quick start:
//
//	g := vccmin.ReferenceGeometry()
//	cap := vccmin.ExpectedBlockDisableCapacity(g, 0.001) // ≈ 0.58
//
//	res, err := vccmin.RunSim(vccmin.SimOptions{
//	    Benchmark: "crafty",
//	    Mode:      vccmin.LowVoltage,
//	    Scheme:    vccmin.BlockDisable,
//	    Victim:    vccmin.Victim10T,
//	    Pair:      vccmin.NewFaultPair(g, g, 0.001, 42),
//	})
//
// See README.md for the quickstart, the CLI inventory (vccmin-analysis,
// vccmin-bench, vccmin-dvfs, vccmin-faultmap, vccmin-fleet,
// vccmin-loadgen, vccmin-query, vccmin-serve, vccmin-sim, vccmin-sweep)
// and the build/test entry points.
package vccmin

import (
	"context"
	"io"
	"math/rand"

	"vccmin/internal/colstore"
	"vccmin/internal/core"
	"vccmin/internal/dvfs"
	"vccmin/internal/engine"
	"vccmin/internal/experiments"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/overhead"
	"vccmin/internal/population"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/sweep"
	"vccmin/internal/tasks"
	"vccmin/internal/workload"
)

// ---- Geometry ----

// Geometry describes a set-associative cache array (size, ways, block).
type Geometry = geom.Geometry

// NewGeometry returns a validated cache geometry with the paper's defaults
// (36-bit addresses, one valid bit).
func NewGeometry(sizeBytes, ways, blockBytes int) (Geometry, error) {
	return geom.New(sizeBytes, ways, blockBytes)
}

// ReferenceGeometry returns the paper's 32 KB, 8-way, 64 B/block L1.
func ReferenceGeometry() Geometry { return experiments.ReferenceGeometry() }

// ---- Section IV analysis ----

// MeanFaultyBlocks implements Eq. 1 (urn model): the expected number of
// distinct blocks hit by n random faults in a cache of g.Blocks() blocks
// with g.CellsPerBlock() cells each.
func MeanFaultyBlocks(g Geometry, n int) float64 {
	return prob.MeanFaultyBlocksExact(g.Blocks(), g.CellsPerBlock(), n)
}

// ExpectedBlockDisableCapacity implements Eq. 2: the expected fraction of
// fault-free blocks at per-cell failure probability pfail.
func ExpectedBlockDisableCapacity(g Geometry, pfail float64) float64 {
	return prob.ExpectedCapacity(g.CellsPerBlock(), pfail)
}

// BlockDisableCapacityDistribution implements Eq. 3: element x is the
// probability that exactly x blocks are fault free.
func BlockDisableCapacityDistribution(g Geometry, pfail float64) []float64 {
	return prob.CapacityPMF(g.Blocks(), g.CellsPerBlock(), pfail)
}

// CapacityAtLeast returns P[capacity >= frac] for a block-disabled cache.
func CapacityAtLeast(g Geometry, pfail, frac float64) float64 {
	return prob.CapacityAtLeast(g.Blocks(), g.CellsPerBlock(), pfail, frac)
}

// WordDisableWholeCacheFailure implements Eqs. 4-5: the probability that a
// word-disabled cache (32-bit words, 8-word subblocks) is unfit for
// low-voltage operation at the given pfail.
func WordDisableWholeCacheFailure(g Geometry, pfail float64) float64 {
	return prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pfail)
}

// IncrementalWordDisableCapacity implements Eq. 6 for the given geometry.
func IncrementalWordDisableCapacity(g Geometry, pfail float64) float64 {
	return prob.IncrementalWDCapacity(g.DataBits(), 8, 32, pfail)
}

// ---- Fault maps and schemes ----

// FaultMap records which cells of a cache array fail at low voltage.
type FaultMap = faults.Map

// FaultPair bundles the I-cache and D-cache maps drawn together for one
// experiment trial.
type FaultPair = faults.Pair

// NewFaultMap draws a uniform random fault map over g at pfail, seeded,
// on the sparse fast path (cost proportional to the fault count, not the
// cell count). The map equals the I side of NewFaultPair at the same
// seed.
func NewFaultMap(g Geometry, pfail float64, seed int64) *FaultMap {
	return faults.GenerateMapSparse(g, 32, pfail, seed)
}

// NewFaultPair draws an I/D fault-map pair from one seed (Section V) on
// the sparse fast path.
func NewFaultPair(ig, dg Geometry, pfail float64, seed int64) *FaultPair {
	p := faults.GeneratePairSparse(ig, dg, 32, pfail, seed)
	return &p
}

// FaultSampler draws fault maps on the sparse fast path while reusing one
// map buffer across draws, so Monte Carlo loops pay no per-trial
// allocation. The zero value is ready to use; each concurrent worker
// needs its own sampler, and a drawn map is valid until the next Draw.
type FaultSampler = faults.Sampler

// NewClusteredFaultMap draws a fault map under the clustered (non-uniform)
// fault model — the paper's future-work extension. clusterSize cells fail
// together; the expected fault rate still equals pfail.
func NewClusteredFaultMap(g Geometry, pfail float64, clusterSize int, seed int64) *FaultMap {
	rng := rand.New(rand.NewSource(seed))
	return faults.GenerateClustered(g, 32, faults.ClusterParams{Pfail: pfail, Size: clusterSize}, rng)
}

// BlockDisableMap is the per-set way-enable state derived from a fault map.
type BlockDisableMap = core.BlockDisableMap

// BuildBlockDisable classifies every block of m: any faulty cell (tag,
// valid or data) disables the block for low-voltage operation.
func BuildBlockDisable(m *FaultMap) *BlockDisableMap { return core.BuildBlockDisable(m) }

// WordDisableFit reports whether a word-disabled cache with m's faults is
// usable below Vcc-min (no 8-word subblock with more than 4 faulty words).
func WordDisableFit(m *FaultMap) bool {
	return core.EvaluateWordDisable(m, core.ReferenceWordDisable()).Fit
}

// ---- Overhead (Table I) ----

// OverheadRow is one row of Table I.
type OverheadRow = overhead.Row

// TableI computes the transistor-overhead comparison for the paper's
// reference L1: 32 KB, 8-way, 64 B blocks, a 16-entry victim cache and
// 32-bit words.
func TableI() []OverheadRow { return overhead.TableI() }

// ---- DVFS model (Fig. 1) ----

// PowerModel is the normalized voltage/frequency/power/performance model.
type PowerModel = power.Model

// DefaultPowerModel returns the Fig. 1 model calibrated so pfail reaches
// 1e-3 at the low-voltage floor.
func DefaultPowerModel() PowerModel { return power.Default() }

// ---- Simulation ----

// Mode is the operating voltage domain.
type Mode = sim.Mode

// Operating modes.
const (
	HighVoltage = sim.HighVoltage
	LowVoltage  = sim.LowVoltage
)

// Scheme selects the cache fault-tolerance mechanism.
type Scheme = sim.Scheme

// Schemes.
const (
	Baseline               = sim.Baseline
	WordDisable            = sim.WordDisable
	BlockDisable           = sim.BlockDisable
	IncrementalWordDisable = sim.IncrementalWordDisable
)

// VictimKind selects the victim-cache option.
type VictimKind = sim.VictimKind

// Victim-cache options.
const (
	NoVictim  = sim.NoVictim
	Victim10T = sim.Victim10T
	Victim6T  = sim.Victim6T
)

// SimOptions configures a single simulation run; the core is always
// the Table II pipeline.
type SimOptions = sim.Options

// SimResult reports a single simulation run.
type SimResult = sim.Result

// RunSim simulates one benchmark on one Table III configuration.
func RunSim(opts SimOptions) (SimResult, error) { return sim.Run(opts) }

// ---- Workloads ----

// Benchmark is a synthetic SPEC CPU 2000 profile.
type Benchmark = workload.Profile

// Benchmarks returns the 26 profiles in the paper's figure order.
func Benchmarks() []Benchmark { return workload.Profiles() }

// BenchmarkNames returns the 26 benchmark names in figure order.
func BenchmarkNames() []string { return workload.Names() }

// MultiPhaseWorkload is a piecewise workload: a named sequence of
// benchmark phases with per-phase instruction budgets — the input of the
// phase-aware DVFS scheduler.
type MultiPhaseWorkload = workload.MultiPhase

// WorkloadPhase is one segment of a MultiPhaseWorkload.
type WorkloadPhase = workload.Phase

// MultiPhaseWorkloads returns the builtin multi-phase workloads
// (compute/memory swings, bursty server rhythms, cache-pressure ramps).
func MultiPhaseWorkloads() []MultiPhaseWorkload { return workload.MultiPhaseProfiles() }

// MultiPhaseWorkloadByName returns the builtin workload with the given
// name.
func MultiPhaseWorkloadByName(name string) (MultiPhaseWorkload, error) {
	return workload.MultiPhaseByName(name)
}

// ---- Phase-aware DVFS scheduling ----

// DVFSPolicy selects the dual-mode scheduling policy.
type DVFSPolicy = dvfs.PolicyKind

// Scheduling policies.
const (
	DVFSStaticHigh = dvfs.PolicyStaticHigh
	DVFSStaticLow  = dvfs.PolicyStaticLow
	DVFSOracle     = dvfs.PolicyOracle
	DVFSReactive   = dvfs.PolicyReactive
	DVFSInterval   = dvfs.PolicyInterval
)

// DVFSPolicies returns the schedulable policies in presentation order.
func DVFSPolicies() []DVFSPolicy { return dvfs.Policies() }

// DVFSConfig describes one scheduled dual-mode run: the multi-phase
// workload, the low-voltage mitigation scheme, the policy and the switch
// economics. The mode economics the paper fixes are not fields: the low
// mode clocks at Table III's 600 MHz against 3 GHz, the oracle's λ is
// the static schedules' exchange rate and the power model is
// DefaultPowerModel().
type DVFSConfig = dvfs.Config

// DVFSResult is one scheduled run's accounting: per-phase time/energy,
// switch counts and the (performance, energy) point the run landed on.
type DVFSResult = dvfs.Result

// RunDVFS executes one scheduled dual-mode run. The result is a pure
// function of the config: byte-identical across runs and machines.
func RunDVFS(cfg DVFSConfig) (DVFSResult, error) { return dvfs.Run(cfg) }

// DVFSPoint is one explored (workload, scheme, policy) operating point,
// with Pareto-frontier membership marked.
type DVFSPoint = dvfs.Point

// DVFSExploreSpec is a (workload × scheme × policy) grid for the Pareto
// explorer; every run in it is a DVFSConfig built from the spec's
// fields.
type DVFSExploreSpec = dvfs.ExploreSpec

// DVFSExploreResult carries every explored point plus the runs behind
// them.
type DVFSExploreResult = dvfs.ExploreResult

// ExploreDVFS runs the explorer grid and marks each workload's Pareto
// frontier over (performance, energy per instruction). Deterministic at
// every worker count.
func ExploreDVFS(spec DVFSExploreSpec) (*DVFSExploreResult, error) { return dvfs.Explore(spec) }

// DVFSFrontier returns the Pareto-optimal subset of points (per
// workload, maximizing performance and minimizing energy per
// instruction).
func DVFSFrontier(points []DVFSPoint) []DVFSPoint { return dvfs.Frontier(points) }

// ---- Experiment drivers (Figs. 8-12) ----

// SimParams configures the Monte Carlo experiments.
type SimParams = experiments.SimParams

// DefaultSimParams returns the paper's setup (26 benchmarks, 50 fault-map
// pairs, pfail 0.001) with a reproduction-scale instruction budget.
func DefaultSimParams() SimParams { return experiments.DefaultSimParams() }

// LowVoltageResults carries the Fig. 8/9/10 measurements.
type LowVoltageResults = experiments.LowVoltageResults

// HighVoltageResults carries the Fig. 11/12 measurements.
type HighVoltageResults = experiments.HighVoltageResults

// Figure is a rendered paper figure.
type Figure = experiments.Figure

// RunLowVoltage executes the below-Vcc-min experiments (Figs. 8-10).
func RunLowVoltage(p SimParams) (*LowVoltageResults, error) {
	return experiments.RunLowVoltage(p)
}

// RunHighVoltage executes the at-or-above-Vcc-min experiments (Figs. 11-12).
func RunHighVoltage(p SimParams) (*HighVoltageResults, error) {
	return experiments.RunHighVoltage(p)
}

// MeasuredBlockDisableCapacity estimates Eq. 2 by Monte Carlo: the mean
// fault-free-block fraction over trials maps drawn at pfail — the
// empirical counterpart of ExpectedBlockDisableCapacity. Trials draw on
// the sparse fast path and run on all CPUs; the estimate is a pure
// function of the arguments (worker scheduling never changes it).
func MeasuredBlockDisableCapacity(g Geometry, pfail float64, trials int, seed int64) float64 {
	return experiments.MeasuredBlockDisableCapacity(g, pfail, trials, seed)
}

// MeasuredBlockDisableCapacityWorkers is MeasuredBlockDisableCapacity
// with the Monte Carlo worker pool bounded to workers goroutines (0 =
// GOMAXPROCS); the estimate is identical at every setting.
func MeasuredBlockDisableCapacityWorkers(g Geometry, pfail float64, trials int, seed int64, workers int) float64 {
	return experiments.MeasuredBlockDisableCapacityWorkers(g, pfail, trials, seed, workers)
}

// ---- Parameter sweeps ----

// SweepSpec configures a deterministic, shardable sweep over the
// (pfail × geometry × scheme × victim × granularity) grid.
type SweepSpec = sweep.Spec

// SweepRow is one grid cell's result (one JSON line of the output).
type SweepRow = sweep.Row

// SweepResult summarizes one sweep execution.
type SweepResult = sweep.Result

// SweepAxisSummary is the per-axis marginal aggregate of a sweep.
type SweepAxisSummary = sweep.AxisSummary

// SweepRunOptions configures one sweep execution: the output stream,
// cancellation, progress observation and the worker bound for concurrent
// cell evaluations (which never changes results, only scheduling).
type SweepRunOptions = sweep.RunOptions

// RunSweep evaluates the spec's grid (or this shard's slice of it),
// streaming JSON-line rows to out (nil discards them). Every cell seeds
// from the hash of its coordinates plus the base seed, so results are
// identical under any shard layout.
func RunSweep(spec SweepSpec, out io.Writer) (*SweepResult, error) {
	return sweep.Run(spec, sweep.RunOptions{Out: out})
}

// RunSweepWith is RunSweep with full execution options — cancellation
// via Context, progress callbacks and a per-run Workers bound. To skip
// the cells a prior checkpoint already holds, use ResumeSweep.
func RunSweepWith(spec SweepSpec, opt SweepRunOptions) (*SweepResult, error) {
	return sweep.Run(spec, opt)
}

// ResumeSweep is RunSweep skipping the cells already present in the
// prior output read from prev; pass the same spec. The result's
// ResumeValidBytes and ResumeTornBytes report how much of the prior
// checkpoint was a usable row prefix and how many trailing bytes of a
// line torn by a kill mid-write were excluded, so callers can log what
// was lost. ResumeSweep only reads prev: when appending the new rows to
// the same file, first truncate it to ResumeValidBytes so a torn tail
// cannot fuse with the first appended row (sweep.ResumeFile, used by
// vccmin-sweep -resume and the serve job runner, does both).
func ResumeSweep(spec SweepSpec, prev io.Reader, out io.Writer) (*SweepResult, error) {
	return sweep.Resume(spec, prev, sweep.RunOptions{Out: out})
}

// SummarizeSweep aggregates rows (e.g. re-read from a finished sweep
// file via ReadSweepRows) into per-axis marginal summaries.
func SummarizeSweep(rows []SweepRow) []SweepAxisSummary { return sweep.Summarize(rows) }

// ReadSweepRows parses a JSON-lines sweep output stream.
func ReadSweepRows(r io.Reader) ([]SweepRow, error) { return sweep.ReadRows(r) }

// ---- Content-addressed compute engine ----

// Engine is the unified content-addressed compute layer every
// entrypoint (HTTP handlers, CLIs, batch) executes its tasks through:
// singleflight in-flight deduplication, an in-memory LRU fronting an
// optional on-disk result store keyed <kind>/<hash>.json, and per-kind
// hit/miss statistics. Results are pure functions of their canonical
// parameters, so stored bytes never go stale.
type Engine = engine.Engine

// EngineOptions sizes an Engine: the in-memory entry bound and the
// optional persistent store directory.
type EngineOptions = engine.Options

// EngineTask is one deterministic unit of compute: a kind, a canonical
// parameter hash, and a Run producing a JSON-marshallable result.
type EngineTask = engine.Task

// EngineResult is one engine execution's outcome: the stored bytes and
// the tier that served them ("miss" = computed, "hit" = memory, "disk",
// "inflight").
type EngineResult = engine.Result

// BatchItem is one request of a heterogeneous batch: a registered task
// kind plus raw JSON parameters.
type BatchItem = engine.BatchItem

// BatchResult is one batch item's outcome, in request order.
type BatchResult = engine.BatchResult

// Registered task kinds for BatchItem.Kind (the same spellings POST
// /v1/batch accepts).
const (
	TaskKindCapacity       = tasks.KindCapacity
	TaskKindOperatingPoint = tasks.KindOperatingPoint
	TaskKindOverhead       = tasks.KindOverhead
	TaskKindSim            = tasks.KindSim
	TaskKindSweep          = tasks.KindSweep
	TaskKindSweepCell      = tasks.KindSweepCell
	TaskKindDVFSRun        = tasks.KindDVFSRun
	TaskKindDVFSExplore    = tasks.KindDVFSExplore
	TaskKindFleetSweep     = tasks.KindFleetSweep
	TaskKindVccminPredict  = tasks.KindVccminPredict
	TaskKindQuery          = tasks.KindQuery
)

// NewEngine builds a compute engine; pass a Dir to persist results
// across processes (the same store layout vccmin-serve keeps under its
// data directory).
func NewEngine(opts EngineOptions) (*Engine, error) { return engine.New(opts) }

// BatchRun executes a heterogeneous list of task requests through the
// engine — every kind the service registers — answering in request
// order with shared deduplication. Per-item failures land in that
// item's Error and never fail the batch.
func BatchRun(ctx context.Context, e *Engine, items []BatchItem) []BatchResult {
	return engine.RunBatch(ctx, e, items, 0)
}

// ---- Fleet-scale population modeling ----

// FleetVariation parameterizes the die-to-die pfail multiplier model:
// inter-wafer lognormal mean, intra-wafer radial gradient, per-die
// noise.
type FleetVariation = population.Variation

// FleetSpec configures one fleet measurement: the die population, the
// variation model, the certification schemes and the voltage grid.
// Zero fields take the population defaults.
type FleetSpec = population.FleetSpec

// FleetDieResult is one die's fleet row: wafer position, drawn
// multiplier, per-scheme Vcc-min grid step.
type FleetDieResult = population.DieResult

// FleetSchemeYield is one scheme's fleet-level Vcc-min distribution:
// histogram, yield-versus-voltage curve, quantiles and per-wafer
// summaries.
type FleetSchemeYield = population.SchemeYield

// FleetResult is one fleet measurement's full answer.
type FleetResult = population.FleetResult

// RunFleet measures every die of a simulated fleet: per-die pfail
// drawn from the wafer-level variation model, Vcc-min bisected under
// each scheme. Deterministic per-die seeding makes the result
// bit-identical at every worker count.
func RunFleet(spec FleetSpec) (*FleetResult, error) { return population.RunFleet(spec) }

// VccminPredictSpec configures a data-efficient Vcc-min prediction
// study: estimate sampled dies' minimum operating voltages from K
// adaptive pass/fail measurements each.
type VccminPredictSpec = population.PredictSpec

// VccminPredictResult reports the study's |estimate - truth| error
// distribution in volts, with the analytic bisection bracket bound.
type VccminPredictResult = population.PredictResult

// RunVccminPredict runs the prediction study over a strided sample of
// the fleet.
func RunVccminPredict(spec VccminPredictSpec) (*VccminPredictResult, error) {
	return population.RunPredict(spec)
}

// ---- Columnar result queries ----

// QuerySpec is the bare aggregation question, for querying rows already
// in hand (see QuerySweepRows).
type QuerySpec = colstore.Spec

// QueryResult is a bare query's answer: row/match counts and groups.
type QueryResult = colstore.Result

// QueryGroup is one group of a query answer.
type QueryGroup = colstore.Group

// QueryAggregate is one metric's aggregates within a group.
type QueryAggregate = colstore.Aggregate

// QuerySweepRows aggregates finished sweep rows (e.g. re-read from a
// checkpoint via ReadSweepRows) through the columnar query layer. The
// answer is independent of row order, so a resumed checkpoint and a
// fresh run agree exactly.
func QuerySweepRows(rows []SweepRow, q QuerySpec) (*QueryResult, error) {
	src, err := colstore.ShardsOf(rows, colstore.DefaultShardRows)
	if err != nil {
		return nil, err
	}
	return colstore.Query(src, q)
}

// EncodeSweepShard packs finished sweep rows into one colstore shard's
// canonical colv1 bytes; DecodeSweepShard reverses it, rejecting any
// malformed or non-canonical input.
func EncodeSweepShard(rows []SweepRow) ([]byte, error) {
	s, err := colstore.NewShard(rows)
	if err != nil {
		return nil, err
	}
	return s.EncodeBytes(), nil
}

// DecodeSweepShard parses canonical colv1 shard bytes back into rows.
func DecodeSweepShard(data []byte) ([]SweepRow, error) {
	s, err := colstore.Decode(data)
	if err != nil {
		return nil, err
	}
	return s.Rows(), nil
}

// ---- Extensions: bit-fix and disabling granularity ----

// BitFixResult classifies a fault map for the bit-fix scheme (the other
// mechanism of Wilkerson et al. reviewed in Section II).
type BitFixResult = core.BitFixResult

// EvaluateBitFix checks a fault map against the reference bit-fix design
// (one repair per 16-bit group, 75% capacity, +2 cycles).
func EvaluateBitFix(m *FaultMap) BitFixResult {
	return core.EvaluateBitFix(m, core.ReferenceBitFix())
}

// BitFixWholeCacheFailure returns the analytic probability that bit-fix
// cannot certify the cache at the given pfail.
func BitFixWholeCacheFailure(g Geometry, pfail float64) float64 {
	return prob.BitFixWholeCacheFailProb(g.Blocks(), g.DataBits(), 8, 1, pfail)
}

// DisablingGranularity names a disabling unit (block, set or way).
type DisablingGranularity = prob.Granularity

// Disabling granularities.
const (
	GranularityBlock = prob.GranularityBlock
	GranularitySet   = prob.GranularitySet
	GranularityWay   = prob.GranularityWay
)

// GranularityCapacity returns the expected surviving capacity when
// disabling at the given granularity (Eq. 2 applied per unit).
func GranularityCapacity(g Geometry, gran DisablingGranularity, pfail float64) float64 {
	return prob.GranularityCapacity(g, gran, pfail)
}

// MostEfficientOperatingPoint returns the minimum-energy operating point
// of the below-Vcc-min DVFS model that still delivers minPerformance
// (normalized); ok is false if the constraint cannot be met.
func MostEfficientOperatingPoint(m PowerModel, minPerformance float64) (power.OperatingPointChoice, bool) {
	return m.MostEfficientPoint(minPerformance, 400)
}
