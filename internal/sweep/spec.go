// Package sweep is a deterministic, sharded Monte Carlo parameter-sweep
// engine over the paper's design space. A Spec names value lists for five
// sweep axes — per-cell failure probability, cache geometry, disabling
// scheme, victim-cache kind and disabling granularity — and the engine
// evaluates every cell of the cartesian grid: the Section IV analytic
// capacity at that cell, a Monte Carlo simulation estimate of its IPC and
// IPC degradation versus the fault-free baseline, and the Fig. 1 energy
// per instruction at the voltage that pfail implies.
//
// Determinism and sharding are the point. Every cell derives its own seed
// stream from the hash of its coordinate key plus the spec's base seed
// (faults.DeriveSeed), so a cell's result is byte-identical whether it is
// computed alone, in a full sweep, or by shard 2 of 4 — shards partition
// the grid by cell index modulo shard count and can run anywhere, in any
// order. Results stream out as JSON lines in cell order; a resumed run
// skips cells whose keys already appear in the output.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"

	"vccmin/internal/dvfs"
	"vccmin/internal/geom"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// Spec describes a sweep: the grid axes plus per-cell Monte Carlo and
// execution parameters. Zero-valued fields take defaults (withDefaults).
type Spec struct {
	// Grid axes. Empty axes default to a single reference value.
	Pfails        []float64
	Geometries    []geom.Geometry
	Schemes       []sim.Scheme
	Victims       []sim.VictimKind
	Granularities []prob.Granularity

	// Policies is the phase-aware DVFS scheduling axis. The default is
	// the single value dvfs.PolicyNone, which evaluates cells the classic
	// way (Monte Carlo IPC at a fixed mode) and — deliberately — leaves
	// their keys, seeds and rows byte-identical to pre-axis sweeps. Any
	// other policy turns the cell into a scheduled dual-mode run over the
	// DVFSWorkloads and fills the row's dvfs_* fields instead of the
	// fixed-mode Monte Carlo ones.
	Policies []dvfs.PolicyKind

	// DVFSWorkloads are the multi-phase workloads averaged within each
	// scheduled (policy != none) cell. Default: compute-memory-swing.
	DVFSWorkloads []string

	// Per-cell Monte Carlo parameters.
	Benchmarks   []string // workloads averaged within each cell
	Trials       int      // fault-map pairs per cell (fault-dependent schemes)
	Instructions int      // simulated instructions per run

	// BaseSeed roots every cell's seed stream.
	BaseSeed int64

	// Workers bounds concurrent cell evaluations; 0 = GOMAXPROCS.
	// RunOptions.Workers overrides it per execution. Either knob only
	// changes scheduling, never results (and is excluded from
	// CanonicalHash).
	Workers int

	// ShardIndex/ShardCount select the cells this run owns: cell i belongs
	// to shard i % ShardCount. Zero ShardCount means 1 (unsharded).
	ShardIndex int
	ShardCount int
}

// WithDefaults returns the spec with every zero-valued field replaced by
// its reference default — the form Check, Cells and CanonicalHash reason
// about. Run applies it internally; callers that need to validate or size
// a grid before running (e.g. the service's request gate) apply it first.
func (s Spec) WithDefaults() Spec { return s.withDefaults() }

func (s Spec) withDefaults() Spec {
	if len(s.Pfails) == 0 {
		s.Pfails = []float64{0.001}
	}
	if len(s.Geometries) == 0 {
		s.Geometries = []geom.Geometry{geom.MustNew(32*1024, 8, 64)}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []sim.Scheme{sim.BlockDisable}
	}
	if len(s.Victims) == 0 {
		s.Victims = []sim.VictimKind{sim.NoVictim}
	}
	if len(s.Granularities) == 0 {
		s.Granularities = []prob.Granularity{prob.GranularityBlock}
	}
	if len(s.Policies) == 0 {
		s.Policies = []dvfs.PolicyKind{dvfs.PolicyNone}
	}
	if len(s.DVFSWorkloads) == 0 {
		s.DVFSWorkloads = []string{"compute-memory-swing"}
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = []string{"crafty", "mcf", "gzip"}
	}
	if s.Trials <= 0 {
		s.Trials = 3
	}
	if s.Instructions <= 0 {
		s.Instructions = 50_000
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.ShardCount <= 0 {
		s.ShardCount = 1
	}
	return s
}

// Check validates a defaulted spec.
func (s Spec) Check() error {
	if s.ShardIndex < 0 || s.ShardIndex >= s.ShardCount {
		return fmt.Errorf("sweep: shard index %d out of range [0,%d)", s.ShardIndex, s.ShardCount)
	}
	for _, p := range s.Pfails {
		if !(p >= 0 && p < 1) {
			return fmt.Errorf("sweep: pfail %v out of [0,1)", p)
		}
	}
	for _, g := range s.Geometries {
		if err := g.Check(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if s.hasScheduledPolicy() {
		for _, w := range s.DVFSWorkloads {
			if _, err := workload.MultiPhaseByName(w); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	}
	for _, b := range s.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Cell is one point of the cartesian grid.
type Cell struct {
	Index       int // position in the full grid, shard-independent
	Pfail       float64
	Geometry    geom.Geometry
	Scheme      sim.Scheme
	Victim      sim.VictimKind
	Granularity prob.Granularity
	Policy      dvfs.PolicyKind
}

// Key returns the cell's canonical coordinate string. It identifies the
// cell across runs — the resume logic matches on it — and roots the
// cell's seed stream, so its format is part of the on-disk contract.
// The policy coordinate appears only when the cell is a scheduled
// (policy != none) one: classic cells keep the exact pre-axis key, so
// old checkpoints resume and old canonical hashes survive.
func (c Cell) Key() string {
	key := fmt.Sprintf("pfail=%s;geom=%dx%dx%d;scheme=%s;victim=%s;gran=%s",
		strconv.FormatFloat(c.Pfail, 'g', -1, 64),
		c.Geometry.SizeBytes, c.Geometry.Ways, c.Geometry.BlockBytes,
		c.Scheme, c.Victim, c.Granularity)
	if c.Policy != dvfs.PolicyNone {
		key += ";policy=" + c.Policy.String()
	}
	return key
}

// Cells enumerates the full grid in canonical order (pfail outermost,
// granularity innermost). The order defines cell indices and therefore
// shard ownership; it must not change across versions.
func (s Spec) Cells() []Cell {
	var out []Cell
	i := 0
	for _, p := range s.Pfails {
		for _, g := range s.Geometries {
			for _, sc := range s.Schemes {
				for _, v := range s.Victims {
					for gi, gr := range s.Granularities {
						for _, pol := range s.Policies {
							// Disabling granularity only enters the
							// analytic capacity, which scheduled runs do
							// not consume — enumerating a scheduled cell
							// per granularity value would repeat the
							// grid's most expensive simulation to produce
							// rows differing only by seed noise dressed
							// up as granularity sensitivity.
							if pol != dvfs.PolicyNone && gi > 0 {
								continue
							}
							out = append(out, Cell{
								Index: i, Pfail: p, Geometry: g,
								Scheme: sc, Victim: v, Granularity: gr,
								Policy: pol,
							})
							i++
						}
					}
				}
			}
		}
	}
	return out
}

// owns reports whether this spec's shard computes the cell.
func (s Spec) owns(c Cell) bool { return c.Index%s.ShardCount == s.ShardIndex }

// CanonicalHash digests the defaulted spec's result-defining parameters:
// the engine's random-stream version, every cell key of the grid, the
// Monte Carlo sample sizes, the benchmark list, the base seed and the
// shard selection. Workers is excluded — it changes scheduling, never
// results. Two specs with equal hashes produce byte-identical row
// streams, which makes the hash a safe cache and deduplication key for
// sweep executions; digesting StreamVersion keeps that invariant across
// RNG-stream breaks (a completed pre-break job gets a different id, so
// the serve layer can never dedup a new request onto its stale rows).
func (s Spec) CanonicalHash() string {
	s = s.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "sweep-v1|stream=%s|seed=%d|trials=%d|instructions=%d|shard=%d/%d\n",
		StreamVersion, s.BaseSeed, s.Trials, s.Instructions, s.ShardIndex, s.ShardCount)
	// Benchmarks are length-prefixed individually: a plain join would make
	// ["a,b"] and ["a","b"] collide, and the hash is a dedup key.
	for _, b := range s.Benchmarks {
		fmt.Fprintf(h, "benchmark=%d:%s\n", len(b), b)
	}
	// The DVFS workload list is result-defining only when a scheduled
	// policy is on the grid; digesting it conditionally keeps every
	// pre-axis spec's hash (and therefore the serve layer's job identity
	// and dedup behaviour) exactly what it was.
	if s.hasScheduledPolicy() {
		for _, w := range s.DVFSWorkloads {
			fmt.Fprintf(h, "dvfs-workload=%d:%s\n", len(w), w)
		}
	}
	for _, c := range s.Cells() {
		fmt.Fprintf(h, "%d:%s\n", c.Index, c.Key())
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// hasScheduledPolicy reports whether any grid cell runs the dvfs
// scheduler (a policy other than PolicyNone).
func (s Spec) hasScheduledPolicy() bool {
	for _, p := range s.Policies {
		if p != dvfs.PolicyNone {
			return true
		}
	}
	return false
}
