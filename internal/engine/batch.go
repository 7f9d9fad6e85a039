package engine

import (
	"context"
	"encoding/json"

	"vccmin/internal/par"
)

// BatchItem is one request of a heterogeneous batch: a registered task
// kind plus its raw JSON parameters.
type BatchItem struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// BatchResult is one batch item's outcome, in request order. Exactly
// one of Value and Error is set.
type BatchResult struct {
	Kind   string          `json:"kind"`
	Hash   string          `json:"hash,omitempty"`
	Source string          `json:"source,omitempty"`
	Value  json.RawMessage `json:"value,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// RunBatch executes a heterogeneous list of task requests through the
// engine with up to workers concurrent computations (0 = GOMAXPROCS)
// and answers in request order. Items sharing a canonical identity —
// with each other or with anything the engine has already seen —
// deduplicate onto one execution through the engine's store and
// singleflight. Per-item failures (unknown kind, bad parameters, task
// errors) land in that item's Error; they never fail the batch.
//
// A non-nil gate is called on each decoded task before it runs; an
// error rejects that item alone (e.g. the service's size limits).
func RunBatch(ctx context.Context, e *Engine, items []BatchItem, workers int, gate func(Task) error) []BatchResult {
	out := make([]BatchResult, len(items))
	// Per-item failures land in the item's slot, so Do never fails.
	_ = par.Do(len(items), workers, nil, func(_ struct{}, i int) error {
		out[i] = runOne(ctx, e, items[i], gate)
		return nil
	}, nil)
	return out
}

func runOne(ctx context.Context, e *Engine, item BatchItem, gate func(Task) error) BatchResult {
	res := BatchResult{Kind: item.Kind}
	t, err := DecodeTask(item.Kind, item.Params)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Hash = t.CanonicalHash()
	if gate != nil {
		if err := gate(t); err != nil {
			res.Error = err.Error()
			return res
		}
	}
	r, err := e.do(ctx, t, res.Hash)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Source = string(r.Source)
	res.Value = json.RawMessage(r.Bytes)
	return res
}
