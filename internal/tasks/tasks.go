// Package tasks defines the concrete compute kinds of the repository as
// engine tasks: the Section IV capacity analysis, the Fig. 1
// operating-point model, the Table I overhead accounting, single
// simulations, sweep runs and individual sweep cells, the phase-aware
// DVFS scheduler (single runs and Pareto explorations), the
// fleet-scale population layer (fleet sweeps and Vcc-min prediction
// studies), and colstore aggregation queries over sweep result sets.
//
// Each kind is a request struct (the JSON shape shared by the HTTP
// handlers, POST /v1/batch and the CLIs), a constructor that validates
// it into a Task, and a response struct whose marshalled bytes are the
// engine's stored representation. Because every surface constructs the
// same task types, a result computed through any entrypoint — server,
// CLI or batch — is byte-identical and reusable by all of them.
//
// The package registers every kind with the engine registry at init
// time, so importing it is what makes engine.DecodeTask and
// engine.RunBatch able to answer heterogeneous requests.
package tasks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"vccmin/internal/engine"
)

// Task kinds, as spelled in batch requests and the stats.
const (
	KindCapacity       = "capacity"
	KindOperatingPoint = "operating-point"
	KindOverhead       = "overhead"
	KindSim            = "sim"
	KindSweep          = "sweep"
	KindSweepCell      = "sweep-cell"
	KindDVFSRun        = "dvfs-run"
	KindDVFSExplore    = "dvfs-explore"
	KindFleetSweep     = "fleet-sweep"
	KindVccminPredict  = "vccmin-predict"
	KindQuery          = "query"
)

func init() {
	engine.RegisterKind(KindCapacity, decodeInto(func(r CapacityRequest) (engine.Task, error) {
		return NewCapacityTask(r)
	}))
	engine.RegisterKind(KindOperatingPoint, decodeInto(func(r OperatingPointRequest) (engine.Task, error) {
		return NewOperatingPointTask(r)
	}))
	engine.RegisterKind(KindOverhead, decodeInto(func(struct{}) (engine.Task, error) {
		return OverheadTask{}, nil
	}))
	engine.RegisterKind(KindSim, decodeInto(func(r SimRequest) (engine.Task, error) {
		return NewSimTask(r)
	}))
	engine.RegisterKind(KindSweep, decodeInto(func(r SweepRequest) (engine.Task, error) {
		return NewSweepRunTask(r)
	}))
	engine.RegisterKind(KindSweepCell, decodeInto(func(r SweepCellRequest) (engine.Task, error) {
		return NewSweepCellTask(r)
	}))
	engine.RegisterKind(KindDVFSRun, decodeInto(func(r DVFSRunRequest) (engine.Task, error) {
		return NewDVFSRunTask(r)
	}))
	engine.RegisterKind(KindDVFSExplore, decodeInto(func(r DVFSExploreRequest) (engine.Task, error) {
		return NewDVFSExploreTask(r)
	}))
	engine.RegisterKind(KindFleetSweep, decodeInto(func(r FleetRequest) (engine.Task, error) {
		return NewFleetTask(r)
	}))
	engine.RegisterKind(KindVccminPredict, decodeInto(func(r PredictRequest) (engine.Task, error) {
		return NewPredictTask(r)
	}))
	engine.RegisterKind(KindQuery, decodeInto(func(r QueryRequest) (engine.Task, error) {
		return NewQueryTask(r)
	}))
}

// decodeInto adapts a typed request constructor into a registry
// Decoder, rejecting unknown fields so a mistyped batch parameter fails
// loudly instead of silently taking a default.
func decodeInto[R any](build func(R) (engine.Task, error)) engine.Decoder {
	return func(params json.RawMessage) (engine.Task, error) {
		var r R
		dec := json.NewDecoder(bytes.NewReader(params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("bad parameters: %w", err)
		}
		return build(r)
	}
}

// field is one named integer request field, for nonNegative.
type field struct {
	name string
	v    int64
}

// nonNegative rejects the first negative count, seed or worker knob,
// named by its JSON spelling. The constructors call it, so the service,
// POST /v1/batch and the CLIs report the same message for the same
// input.
func nonNegative(fields ...field) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("%s %d negative", f.name, f.v)
		}
	}
	return nil
}

// hashJSON digests a kind-prefixed canonical (defaulted, scheduling
// knobs zeroed) request into the content address its results live
// under. Requests that normalize equal share bytes in every tier.
func hashJSON(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Request structs are plain data; a marshal failure is a
		// programming error, not an input error.
		panic(fmt.Sprintf("tasks: hashing %s request: %v", kind, err))
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'|'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:12])
}
