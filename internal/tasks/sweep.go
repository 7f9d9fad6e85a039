package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/dvfs"
	"vccmin/internal/geom"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/sweep"
)

// SweepRequest is the JSON form of a sweep.Spec grid (the POST
// /v1/sweeps body and the sweep task parameters): the enum axes spelled
// as CLI-style strings. Empty axes take the engine's reference defaults.
type SweepRequest struct {
	Pfails        []float64 `json:"pfails" flag:"pfail" help:"pfail values: comma list or lo:hi:n, n log-spaced points (default 1e-3)"`
	Geometries    []string  `json:"geometries" flag:"geom" help:"cache geometries, comma list of SIZExWAYSxBLOCK (default 32768x8x64)"`
	Schemes       []string  `json:"schemes" help:"schemes, comma list of baseline,word,block,inc-word,bitfix (default block)"`
	Victims       []string  `json:"victims" help:"victim caches, comma list of none,10t,6t (default none)"`
	Granularities []string  `json:"granularities" flag:"gran" help:"disabling granularities, comma list of block,set,way (default block)"`
	Policies      []string  `json:"policies" help:"DVFS policy axis, comma list of static-high,static-low,oracle,reactive,interval (default: classic cells only)"`
	DVFSWorkloads []string  `json:"dvfs_workloads" help:"multi-phase workloads per scheduled cell, comma list (default compute-memory-swing)"`
	Benchmarks    []string  `json:"benchmarks" help:"benchmarks per cell, comma list (default crafty,mcf,gzip)"`
	Trials        int       `json:"trials" help:"fault-map pairs per cell (default 3)"`
	Instructions  int       `json:"instructions" help:"simulated instructions per run (default 50000)"`
	BaseSeed      int64     `json:"base_seed" flag:"seed" help:"base seed for every cell's seed stream (default 1)"`
	Workers       int       `json:"workers" help:"concurrent cell evaluations (0 = GOMAXPROCS); never changes results"`
	ShardIndex    int       `json:"shard_index,omitempty" flag:"shard" help:"this run's shard index in [0,shards)"`
	ShardCount    int       `json:"shard_count,omitempty" flag:"shards" help:"total shard count (default 1)"`
}

// Spec converts the request into the sweep engine's spec form.
func (r SweepRequest) Spec() (sweep.Spec, error) {
	spec := sweep.Spec{
		Pfails:        r.Pfails,
		DVFSWorkloads: r.DVFSWorkloads,
		Benchmarks:    r.Benchmarks,
		Trials:        r.Trials,
		Instructions:  r.Instructions,
		BaseSeed:      r.BaseSeed,
		Workers:       r.Workers,
		ShardIndex:    r.ShardIndex,
		ShardCount:    r.ShardCount,
	}
	var err error
	if spec.Geometries, err = parseList(r.Geometries, geom.Parse); err != nil {
		return spec, err
	}
	if spec.Schemes, err = parseList(r.Schemes, sim.ParseScheme); err != nil {
		return spec, err
	}
	if spec.Victims, err = parseList(r.Victims, sim.ParseVictim); err != nil {
		return spec, err
	}
	if spec.Granularities, err = parseList(r.Granularities, prob.ParseGranularity); err != nil {
		return spec, err
	}
	spec.Policies, err = parseList(r.Policies, dvfs.ParsePolicy)
	return spec, err
}

// checkedSpec is Spec defaulted and checked: the grid every sweep-backed
// kind runs.
func (r SweepRequest) checkedSpec() (sweep.Spec, error) {
	spec, err := r.Spec()
	if err != nil {
		return spec, err
	}
	spec = spec.WithDefaults()
	return spec, spec.Check()
}

// SweepRunResponse is a whole sweep execution's result: the rows this
// spec's shard owns, in cell order, plus the per-axis summary.
type SweepRunResponse struct {
	Hash       string              `json:"hash"`
	Stream     string              `json:"stream"`
	TotalCells int                 `json:"total_cells"`
	ShardCells int                 `json:"shard_cells"`
	Computed   int                 `json:"computed"`
	Rows       []sweep.Row         `json:"rows"`
	Summary    []sweep.AxisSummary `json:"summary"`
}

// SweepRunTask evaluates a full sweep grid (or its shard's slice)
// synchronously. The async job path keeps its own streaming
// checkpoint/resume machinery; this task is the engine-store form the
// CLIs and POST /v1/batch share.
type SweepRunTask struct {
	Spec sweep.Spec // defaulted and checked by the constructor
}

// NewSweepRunTask validates the request into a runnable task.
func NewSweepRunTask(req SweepRequest) (SweepRunTask, error) {
	spec, err := req.checkedSpec()
	if err != nil {
		return SweepRunTask{}, err
	}
	return SweepRunTask{Spec: spec}, nil
}

// Kind implements engine.Task.
func (t SweepRunTask) Kind() string { return KindSweep }

// CanonicalHash is the sweep spec's own canonical hash — the same
// identity the async job manager dedups on.
func (t SweepRunTask) CanonicalHash() string { return t.Spec.CanonicalHash() }

// GridCells reports the full grid size, for request gates.
func (t SweepRunTask) GridCells() int { return len(t.Spec.Cells()) }

// Run implements engine.Task.
func (t SweepRunTask) Run(ctx context.Context) (any, error) {
	res, err := sweep.Run(t.Spec, sweep.RunOptions{Context: ctx})
	if err != nil {
		return nil, err
	}
	rows := res.Rows
	if rows == nil {
		rows = []sweep.Row{}
	}
	return SweepRunResponse{
		Hash:       t.Spec.CanonicalHash(),
		Stream:     sweep.StreamVersion,
		TotalCells: res.TotalCells,
		ShardCells: res.ShardCells,
		Computed:   res.Computed,
		Rows:       rows,
		Summary:    res.Summary,
	}, nil
}

// SweepCellRequest addresses one cell of a sweep grid by its
// shard-independent index.
type SweepCellRequest struct {
	SweepRequest
	Index int `json:"index"`
}

// SweepCellTask evaluates exactly one grid cell; the row is
// byte-identical to the same cell's line in a full sweep.
type SweepCellTask struct {
	Spec  sweep.Spec
	Cell  sweep.Cell
	index int
}

// NewSweepCellTask validates the request into a runnable task.
func NewSweepCellTask(req SweepCellRequest) (SweepCellTask, error) {
	spec, err := req.checkedSpec()
	if err != nil {
		return SweepCellTask{}, err
	}
	cells := spec.Cells()
	if req.Index < 0 || req.Index >= len(cells) {
		return SweepCellTask{}, fmt.Errorf("cell index %d out of the grid's [0,%d)", req.Index, len(cells))
	}
	return SweepCellTask{Spec: spec, Cell: cells[req.Index], index: req.Index}, nil
}

// Kind implements engine.Task.
func (t SweepCellTask) Kind() string { return KindSweepCell }

// CanonicalHash scopes the cell under its spec's identity: the same
// coordinates in a different grid are a different result (trials,
// benchmarks and the base seed all flow into the row).
func (t SweepCellTask) CanonicalHash() string {
	return hashJSON(KindSweepCell, struct {
		Spec  string `json:"spec"`
		Index int    `json:"index"`
	}{Spec: t.Spec.CanonicalHash(), Index: t.index})
}

// GridCells reports the full grid size, for request gates.
func (t SweepCellTask) GridCells() int { return len(t.Spec.Cells()) }

// Run implements engine.Task.
func (t SweepCellTask) Run(ctx context.Context) (any, error) {
	return t.Spec.EvaluateCell(t.Cell)
}
