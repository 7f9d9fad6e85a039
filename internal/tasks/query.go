package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/colstore"
	"vccmin/internal/sweep"
)

// QueryRequest is the POST /v1/query body and the query task's
// parameters: a sweep grid (the result set to aggregate over) plus a
// colstore aggregation spec. The sweep axes name the same grid POST
// /v1/sweeps takes — if that sweep has already run as a job, the query
// folds its checkpoint and answers without simulating; otherwise the
// query computes the sweep inline (batch-shaped work).
type QueryRequest struct {
	Sweep    SweepRequest      `json:"sweep"`
	GroupBy  []string          `json:"group_by,omitempty" help:"axes to group by, comma list of pfail,geometry,scheme,victim,granularity,policy,stream"`
	Metrics  []string          `json:"metrics,omitempty" help:"metrics to aggregate, comma list (default expected_capacity,ipc_degradation,energy_per_instruction)"`
	Where    map[string]string `json:"where,omitempty" help:"equality filters, comma list of axis=value"`
	PfailMin *float64          `json:"pfail_min,omitempty" help:"keep rows with pfail >= this (absent = no lower bound)"`
	PfailMax *float64          `json:"pfail_max,omitempty" help:"keep rows with pfail <= this (absent = no upper bound)"`
}

// DefaultQueryMetrics are aggregated when the request names none: the
// three summary columns the sweep's own per-axis summary reports.
var DefaultQueryMetrics = []string{"expected_capacity", "ipc_degradation", "energy_per_instruction"}

// QueryResponse is the query's answer: the resolved question (hash,
// grid identity, group-by, metrics, filters) plus the groups.
type QueryResponse struct {
	Hash      string            `json:"hash"`
	SweepHash string            `json:"sweep_hash"`
	Stream    string            `json:"stream"`
	GroupBy   []string          `json:"group_by,omitempty"`
	Metrics   []string          `json:"metrics"`
	Where     map[string]string `json:"where,omitempty"`
	PfailMin  *float64          `json:"pfail_min,omitempty"`
	PfailMax  *float64          `json:"pfail_max,omitempty"`
	Rows      int               `json:"rows"`
	Matched   int               `json:"matched"`
	Groups    []colstore.Group  `json:"groups"`
}

// QueryTask aggregates a sweep's result set through the colstore query
// layer. Its canonical hash digests the sweep's canonical hash plus the
// normalized question — never the source: a query answered from a
// folded checkpoint and the same query computed inline store
// byte-identical bytes under the same address, which only holds because
// colstore.Query is row-order independent (a resumed checkpoint and a
// fresh run order rows differently).
type QueryTask struct {
	Req   QueryRequest
	Spec  sweep.Spec    // the defaulted, checked sweep grid
	Query colstore.Spec // the defaulted, checked aggregation question

	// source, when set, answers the query without running the sweep.
	// Callers must only attach a source holding exactly the Spec's
	// result set (WithRows validates; the service derives the source
	// from a job keyed by the spec's own hash).
	source colstore.Source

	// hash and sweepHash are CanonicalHash and SweepHash, computed once
	// by the constructor.
	hash, sweepHash string
}

// NewQueryTask validates the request into a runnable task.
func NewQueryTask(req QueryRequest) (QueryTask, error) {
	spec, err := req.Sweep.checkedSpec()
	if err != nil {
		return QueryTask{}, err
	}
	metrics := req.Metrics
	if len(metrics) == 0 {
		metrics = DefaultQueryMetrics
	}
	q := colstore.Spec{
		GroupBy:  req.GroupBy,
		Metrics:  metrics,
		Where:    req.Where,
		PfailMin: req.PfailMin,
		PfailMax: req.PfailMax,
	}
	if err := q.Check(); err != nil {
		return QueryTask{}, err
	}
	sweepHash := spec.CanonicalHash()
	hash := hashJSON(KindQuery, struct {
		Sweep    string            `json:"sweep"`
		GroupBy  []string          `json:"group_by,omitempty"`
		Metrics  []string          `json:"metrics"`
		Where    map[string]string `json:"where,omitempty"`
		PfailMin *float64          `json:"pfail_min,omitempty"`
		PfailMax *float64          `json:"pfail_max,omitempty"`
	}{
		Sweep:    sweepHash,
		GroupBy:  q.GroupBy,
		Metrics:  q.Metrics,
		Where:    q.Where,
		PfailMin: q.PfailMin,
		PfailMax: q.PfailMax,
	})
	return QueryTask{Req: req, Spec: spec, Query: q, hash: hash, sweepHash: sweepHash}, nil
}

// Kind implements engine.Task.
func (t QueryTask) Kind() string { return KindQuery }

// CanonicalHash digests the sweep grid's identity plus the normalized
// question. Workers never enters (it is excluded from the sweep hash),
// and the Where map marshals with sorted keys, so equal questions hash
// equal however they were spelled.
func (t QueryTask) CanonicalHash() string { return t.hash }

// GridCells reports the full grid size, for request gates.
func (t QueryTask) GridCells() int { return len(t.Spec.Cells()) }

// SweepHash is the underlying grid's canonical hash — the job id a
// finished checkpoint for this result set would live under.
func (t QueryTask) SweepHash() string { return t.sweepHash }

// WithSource returns the task answering from src instead of running the
// sweep. The caller vouches that src holds exactly the task's result
// set (e.g. a fold of the job checkpoint keyed by SweepHash).
func (t QueryTask) WithSource(src colstore.Source) QueryTask {
	t.source = src
	return t
}

// WithRows attaches precomputed rows (e.g. a checkpoint file) as the
// source, after verifying they are exactly the spec's owned result set:
// same stream version, every owned cell key present exactly once,
// nothing extra. Row order is preserved — the query's answer does not
// depend on it.
func (t QueryTask) WithRows(rows []sweep.Row) (QueryTask, error) {
	want := make(map[string]bool)
	for _, c := range t.Spec.Cells() {
		if c.Index%t.Spec.ShardCount == t.Spec.ShardIndex {
			want[c.Key()] = false
		}
	}
	if len(rows) != len(want) {
		return QueryTask{}, fmt.Errorf("query: %d rows for a grid whose shard owns %d cells", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Stream != sweep.StreamVersion {
			return QueryTask{}, fmt.Errorf("query: row %d has stream %q, engine speaks %q — rerun the sweep",
				i, r.Stream, sweep.StreamVersion)
		}
		seen, ok := want[r.Key]
		if !ok {
			return QueryTask{}, fmt.Errorf("query: row %d key %q is not in the spec's grid", i, r.Key)
		}
		if seen {
			return QueryTask{}, fmt.Errorf("query: duplicate row for cell %q", r.Key)
		}
		want[r.Key] = true
	}
	src, err := colstore.ShardsOf(rows, colstore.DefaultShardRows)
	if err != nil {
		return QueryTask{}, err
	}
	t.source = src
	return t, nil
}

// Run implements engine.Task: fold (or compute) the result set, then
// aggregate. The response is byte-identical whichever path ran.
func (t QueryTask) Run(ctx context.Context) (any, error) {
	src := t.source
	if src == nil {
		res, err := sweep.Run(t.Spec, sweep.RunOptions{Context: ctx})
		if err != nil {
			return nil, err
		}
		if src, err = colstore.ShardsOf(res.Rows, colstore.DefaultShardRows); err != nil {
			return nil, err
		}
	}
	qr, err := colstore.Query(src, t.Query)
	if err != nil {
		return nil, err
	}
	return QueryResponse{
		Hash:      t.hash,
		SweepHash: t.sweepHash,
		Stream:    sweep.StreamVersion,
		GroupBy:   t.Query.GroupBy,
		Metrics:   t.Query.Metrics,
		Where:     t.Query.Where,
		PfailMin:  t.Query.PfailMin,
		PfailMax:  t.Query.PfailMax,
		Rows:      qr.Rows,
		Matched:   qr.Matched,
		Groups:    qr.Groups,
	}, nil
}
