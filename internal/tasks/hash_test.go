package tasks

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"vccmin/internal/engine"
)

// TestPinnedCanonicalHashes pins the content address of one fixed
// request per registered kind, decoded through the registry the batch
// endpoint uses. A moved hash orphans every stored result of its kind,
// so a change to parsing, defaulting or hashing must leave these alone.
func TestPinnedCanonicalHashes(t *testing.T) {
	pinned := map[string]struct{ params, hash string }{
		KindCapacity:       {`{"pfail":0.002,"geom":"16384x4x64","gran":"set","trials":20,"seed":5,"workers":2}`, "9eda90919413acc6e361b60c"},
		KindOperatingPoint: {`{"pfail":0.003}`, "6b225701c8115069949107d2"},
		KindOverhead:       {`{}`, "3d4ffe74c7290940e2e48743"},
		KindSim:            {`{"benchmark":"mcf","mode":"low","scheme":"inc-word","victim":"10t","geometry":"16384x4x64","pfail":0.001,"seed":3,"instructions":4000}`, "f8da3ab5e106d235b495ba46"},
		KindSweep:          {`{"pfails":[0.001,0.002],"geometries":["16384x4x64"],"schemes":["block","word"],"victims":["none","10t"],"granularities":["block"],"benchmarks":["crafty"],"trials":2,"instructions":2000,"base_seed":4,"workers":3}`, "0ed753f8cee3def0217d0563"},
		KindSweepCell:      {`{"pfails":[0.001],"schemes":["block"],"policies":["oracle","static-low"],"dvfs_workloads":["bursty-server"],"benchmarks":["crafty"],"trials":1,"instructions":2000,"index":1}`, "225d929754b38849a1cc15cf"},
		KindDVFSRun:        {`{"workload":"bursty-server","scheme":"word","victim":"6t","policy":"reactive","geom":"16384x4x64","pfail":0.002,"seed":2,"scale":5000,"penalty":100,"interval":500,"ipc_threshold":0.2}`, "e8304d6616223a0089af786b"},
		KindDVFSExplore:    {`{"workloads":["bursty-server"],"schemes":["block","word"],"policies":["oracle","static-low"],"victim":"10t","pfail":0.002,"seed":3,"scale":4000,"runs":true}`, "15f71967005a52f94dfbfcbf"},
		KindFleetSweep:     {`{"dies":200,"dies_per_wafer":32,"schemes":["word","block"],"wafer_sigma":0.2,"vsteps":17,"geom":"16384x4x64","seed":7,"include_dies":true,"workers":3}`, "c7ee6310ad5d73d225f7c56a"},
		KindVccminPredict:  {`{"dies":200,"scheme":"word","k":5,"sample":16,"seed":7,"workers":2}`, "645881f76d6d4f4f57a5ef8a"},
		KindQuery:          {`{"sweep":{"pfails":[0.001,0.002],"schemes":["block","word"],"benchmarks":["crafty"],"trials":1},"group_by":["scheme"],"metrics":["ipc_degradation"],"pfail_min":0.0001}`, "bb2abe94ba0b3b756fe9f043"},
	}
	var kinds []string
	for kind, c := range pinned {
		kinds = append(kinds, kind)
		task, err := engine.DecodeTask(kind, json.RawMessage(c.params))
		if err != nil {
			t.Errorf("%s: decode: %v", kind, err)
			continue
		}
		if got := task.CanonicalHash(); got != c.hash {
			t.Errorf("%s: canonical hash %s, pinned %s", kind, got, c.hash)
		}
	}
	sort.Strings(kinds)
	if !reflect.DeepEqual(kinds, engine.Kinds()) {
		t.Errorf("pinned kinds %v, registered %v", kinds, engine.Kinds())
	}
}

// countingTask counts the engine's CanonicalHash calls on the task it
// wraps.
type countingTask struct {
	engine.Task
	hashes *int
}

func (c countingTask) CanonicalHash() string {
	*c.hashes++
	return c.Task.CanonicalHash()
}

// TestMissHashesOnce: a fleet, predict or query miss hashes its request
// once. The constructor computes the hash; the engine asks for it once;
// asking again hashes nothing (hashJSON marshals and digests, which
// allocates); and the response carries that same hash.
func TestMissHashesOnce(t *testing.T) {
	for kind, params := range map[string]string{
		KindFleetSweep:    `{"dies":4,"vsteps":5,"seed":3}`,
		KindVccminPredict: `{"dies":8,"sample":2,"k":3,"seed":3}`,
		KindQuery:         `{"sweep":{"pfails":[0.001],"schemes":["block"],"benchmarks":["crafty"],"trials":1,"instructions":2000},"group_by":["scheme"]}`,
	} {
		task, err := engine.DecodeTask(kind, json.RawMessage(params))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if n := testing.AllocsPerRun(10, func() { _ = task.CanonicalHash() }); n != 0 {
			t.Errorf("%s: CanonicalHash allocates %v per call; it should return the constructor's hash", kind, n)
		}
		e, err := engine.New(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hashes := 0
		r, err := e.Do(context.Background(), countingTask{task, &hashes})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if hashes != 1 {
			t.Errorf("%s: the engine called CanonicalHash %d times for one miss, want 1", kind, hashes)
		}
		var resp struct {
			Hash string `json:"hash"`
		}
		if err := r.Decode(&resp); err != nil || resp.Hash != task.CanonicalHash() {
			t.Errorf("%s: response hash %q (%v), want %q", kind, resp.Hash, err, task.CanonicalHash())
		}
	}
}
