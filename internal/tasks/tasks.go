// Package tasks defines the concrete compute kinds of the repository as
// engine tasks: the Section IV capacity analysis, the Fig. 1
// operating-point model, the Table I overhead accounting, single
// simulations, sweep runs and individual sweep cells, the phase-aware
// DVFS scheduler (single runs and Pareto explorations), the
// fleet-scale population layer (fleet sweeps and Vcc-min prediction
// studies), and colstore aggregation queries over sweep result sets.
//
// Each kind is a request struct (the JSON shape shared by the HTTP
// handlers, POST /v1/batch and the CLIs), a constructor that resolves
// it — parses, defaults and validates it once — into a Task whose Run
// uses what the constructor resolved, and a response struct whose
// marshalled bytes are the engine's stored representation. Because every surface constructs the
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
	register(KindCapacity, NewCapacityTask)
	register(KindOperatingPoint, NewOperatingPointTask)
	register(KindOverhead, func(struct{}) (OverheadTask, error) { return OverheadTask{}, nil })
	register(KindSim, NewSimTask)
	register(KindSweep, NewSweepRunTask)
	register(KindSweepCell, NewSweepCellTask)
	register(KindDVFSRun, NewDVFSRunTask)
	register(KindDVFSExplore, NewDVFSExploreTask)
	register(KindFleetSweep, NewFleetTask)
	register(KindVccminPredict, NewPredictTask)
	register(KindQuery, NewQueryTask)
}

// register installs a kind's registry Decoder: strict JSON decoding of
// the request R, rejecting unknown fields so a mistyped batch parameter
// fails loudly instead of silently taking a default, then the kind's
// constructor.
func register[R any, T engine.Task](kind string, build func(R) (T, error)) {
	engine.RegisterKind(kind, func(params json.RawMessage) (engine.Task, error) {
		var r R
		dec := json.NewDecoder(bytes.NewReader(params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("bad parameters: %w", err)
		}
		t, err := build(r)
		if err != nil {
			return nil, err
		}
		return t, nil
	})
}

// parseList parses each element of an enum-valued list field in order.
// An empty list stays nil, so the spec's own default applies; a bad
// element fails with the parser's error.
func parseList[T any](in []string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range in {
		v, err := parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// checkPfail enforces the [0,1) range of a per-cell failure
// probability.
func checkPfail(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("pfail %v out of [0,1)", p)
	}
	return nil
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
