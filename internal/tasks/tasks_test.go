package tasks

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vccmin/internal/engine"
	"vccmin/internal/sweep"
)

func mustRun(t *testing.T, task engine.Task) []byte {
	t.Helper()
	v, err := task.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", task.Kind(), err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCapacityTaskDefaultsAndHash(t *testing.T) {
	// An empty request and its spelled-out default form must share one
	// content address...
	empty, err := NewCapacityTask(CapacityRequest{})
	if err != nil {
		t.Fatal(err)
	}
	p := 0.001
	spelled, err := NewCapacityTask(CapacityRequest{Pfail: &p, Granularity: "block", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if empty.CanonicalHash() != spelled.CanonicalHash() {
		t.Fatal("defaulted and spelled-out requests must hash equal")
	}
	// ...and the worker knob must not change it (scheduling, not results).
	workers, _ := NewCapacityTask(CapacityRequest{Workers: 7})
	if workers.CanonicalHash() != empty.CanonicalHash() {
		t.Fatal("workers must be excluded from the canonical hash")
	}
	other := 0.002
	diff, _ := NewCapacityTask(CapacityRequest{Pfail: &other})
	if diff.CanonicalHash() == empty.CanonicalHash() {
		t.Fatal("pfail must change the canonical hash")
	}

	var resp CapacityResponse
	if err := json.Unmarshal(mustRun(t, empty), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Pfail != 0.001 || resp.Geometry != "32768x8x64" || resp.Granularity != "block" {
		t.Fatalf("defaults not applied: %+v", resp)
	}
	if resp.ExpectedCapacity <= 0 || resp.ExpectedCapacity >= 1 {
		t.Fatalf("expected capacity %v out of (0,1)", resp.ExpectedCapacity)
	}
}

func TestCapacityTaskValidation(t *testing.T) {
	bad := 2.0
	for name, req := range map[string]CapacityRequest{
		"pfail":  {Pfail: &bad},
		"geom":   {Geometry: "banana"},
		"gran":   {Granularity: "nope"},
		"trials": {Trials: 100_000},
	} {
		if _, err := NewCapacityTask(req); err == nil {
			t.Errorf("%s: bad request accepted", name)
		}
	}
}

// TestConstructorsRejectNegatives pins the negative-value checks every
// entry point inherits from the constructors, message included.
func TestConstructorsRejectNegatives(t *testing.T) {
	for want, build := range map[string]func() error{
		"trials -1 negative":  func() error { _, err := NewCapacityTask(CapacityRequest{Trials: -1}); return err },
		"seed -4 negative":    func() error { _, err := NewCapacityTask(CapacityRequest{Seed: -4}); return err },
		"workers -2 negative": func() error { _, err := NewCapacityTask(CapacityRequest{Workers: -2}); return err },
		"seed -1 negative":    func() error { _, err := NewDVFSExploreTask(DVFSExploreRequest{Seed: -1}); return err },
		"scale -5 negative":   func() error { _, err := NewDVFSExploreTask(DVFSExploreRequest{Scale: -5}); return err },
		"seed -3 negative": func() error {
			_, err := NewDVFSRunTask(DVFSRunRequest{Workload: "bursty-server", Policy: "oracle", Seed: -3})
			return err
		},
		"dies -10 negative":          func() error { _, err := NewFleetTask(FleetRequest{Dies: -10}); return err },
		"dies_per_wafer -1 negative": func() error { _, err := NewFleetTask(FleetRequest{DiesPerWafer: -1}); return err },
		"vsteps -3 negative":         func() error { _, err := NewFleetTask(FleetRequest{VSteps: -3}); return err },
		"workers -1 negative":        func() error { _, err := NewFleetTask(FleetRequest{Workers: -1}); return err },
		"seed -7 negative":           func() error { _, err := NewPredictTask(PredictRequest{Seed: -7}); return err },
		"dies -2 negative":           func() error { _, err := NewPredictTask(PredictRequest{Dies: -2}); return err },
		"k -5 negative":              func() error { _, err := NewPredictTask(PredictRequest{K: -5, Dies: 64}); return err },
		"sample -3 negative":         func() error { _, err := NewPredictTask(PredictRequest{Sample: -3, Dies: 64}); return err },
	} {
		if err := build(); err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	}
}

func TestOperatingPointTaskModes(t *testing.T) {
	minPerf := 0.5
	perf, err := NewOperatingPointTask(OperatingPointRequest{MinPerformance: &minPerf})
	if err != nil {
		t.Fatal(err)
	}
	var resp OperatingPointResponse
	if err := json.Unmarshal(mustRun(t, perf), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Performance < 0.5 || resp.MinPerformance != 0.5 {
		t.Fatalf("floor mode response %+v", resp)
	}

	// In floor mode, pfail is irrelevant and must not split the cache.
	p := 0.005
	withPfail, _ := NewOperatingPointTask(OperatingPointRequest{MinPerformance: &minPerf, Pfail: &p})
	if withPfail.CanonicalHash() != perf.CanonicalHash() {
		t.Fatal("pfail must be ignored in performance-floor mode")
	}

	zero := 0.0
	if _, err := NewOperatingPointTask(OperatingPointRequest{Pfail: &zero}); err == nil {
		t.Fatal("pfail 0 must be rejected in pfail mode")
	}
}

func TestOverheadTask(t *testing.T) {
	var resp OverheadResponse
	if err := json.Unmarshal(mustRun(t, OverheadTask{}), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 6 || resp.Rows[0].Scheme != "Baseline" {
		t.Fatalf("Table I rows %+v", resp.Rows)
	}
}

func TestSimTaskMatchesDirectRun(t *testing.T) {
	req := SimRequest{Benchmark: "crafty", Scheme: "block", Pfail: 0.001, Instructions: 3000}
	task, err := NewSimTask(req)
	if err != nil {
		t.Fatal(err)
	}
	var resp SimResponse
	if err := json.Unmarshal(mustRun(t, task), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.IPC <= 0 || resp.Scheme != "block-disable" || resp.Mode != "low-voltage" {
		t.Fatalf("sim response %+v", resp)
	}
	// Identical requests share an identity; different seeds do not.
	same, _ := NewSimTask(req)
	if same.CanonicalHash() != task.CanonicalHash() {
		t.Fatal("identical sim requests must hash equal")
	}
	req.Seed = 9
	seeded, _ := NewSimTask(req)
	if seeded.CanonicalHash() == task.CanonicalHash() {
		t.Fatal("seed must change the sim hash")
	}
	if _, err := NewSimTask(SimRequest{}); err == nil {
		t.Fatal("missing benchmark must be rejected")
	}
}

// TestNewSimTaskValidatesOnly: constructing a sim task checks the
// request without drawing its fault-map pair, so a block-disable
// request allocates nothing until it runs, and a bad request fails with
// the message it always has.
func TestNewSimTaskValidatesOnly(t *testing.T) {
	block := SimRequest{Benchmark: "crafty", Scheme: "block", Pfail: 0.001, Seed: 4, Instructions: 3000}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewSimTask(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NewSimTask of a block request allocates %v objects, want 0", allocs)
	}

	for _, c := range []struct {
		req  SimRequest
		want string
	}{
		{SimRequest{}, "benchmark is required"},
		{SimRequest{Benchmark: "crafty", Mode: "mid"}, `bad mode "mid" (want low or high)`},
		{SimRequest{Benchmark: "crafty", Scheme: "nope"}, `sim: unknown scheme "nope" (want baseline, word, block, inc-word or bitfix)`},
		{SimRequest{Benchmark: "crafty", Victim: "nope"}, `sim: unknown victim kind "nope" (want none, 10t or 6t)`},
		{SimRequest{Benchmark: "crafty", Geometry: "nope"}, `geom: bad geometry "nope" (want SIZExWAYSxBLOCK)`},
		{SimRequest{Benchmark: "crafty", Scheme: "block", Pfail: 1}, "pfail 1 out of [0,1)"},
		{SimRequest{Benchmark: "crafty", Scheme: "block", Pfail: -0.5}, "pfail -0.5 out of [0,1)"},
	} {
		_, err := NewSimTask(c.req)
		if err == nil || err.Error() != c.want {
			t.Errorf("NewSimTask(%+v) error %v, want %q", c.req, err, c.want)
		}
	}
}

func tinySweepRequest() SweepRequest {
	return SweepRequest{
		Pfails:       []float64{0.001, 0.005},
		Schemes:      []string{"baseline", "block"},
		Benchmarks:   []string{"crafty"},
		Trials:       2,
		Instructions: 2000,
		BaseSeed:     7,
	}
}

// TestSweepTasksMatchStreamingRun is the refactor's core invariant: the
// engine-task forms of a sweep (whole run, single cell) must reproduce
// the streaming path's rows exactly.
func TestSweepTasksMatchStreamingRun(t *testing.T) {
	req := tinySweepRequest()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Run(spec, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	runTask, err := NewSweepRunTask(req)
	if err != nil {
		t.Fatal(err)
	}
	if runTask.CanonicalHash() != spec.CanonicalHash() {
		t.Fatal("sweep task hash must equal the spec's canonical hash")
	}
	if runTask.GridCells() != 4 {
		t.Fatalf("grid cells %d, want 4", runTask.GridCells())
	}
	var resp SweepRunResponse
	if err := json.Unmarshal(mustRun(t, runTask), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Computed != 4 || len(resp.Rows) != 4 || resp.Stream != sweep.StreamVersion {
		t.Fatalf("sweep response %+v", resp)
	}
	directBytes, _ := json.Marshal(direct.Rows)
	taskBytes, _ := json.Marshal(resp.Rows)
	if string(directBytes) != string(taskBytes) {
		t.Fatal("task rows differ from the streaming run's rows")
	}

	// Each single-cell task must reproduce its row in isolation.
	for i, want := range direct.Rows {
		cellTask, err := NewSweepCellTask(SweepCellRequest{SweepRequest: req, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		var row sweep.Row
		if err := json.Unmarshal(mustRun(t, cellTask), &row); err != nil {
			t.Fatal(err)
		}
		wantB, _ := json.Marshal(want)
		gotB, _ := json.Marshal(row)
		if string(wantB) != string(gotB) {
			t.Fatalf("cell %d row differs from the full run's", i)
		}
	}

	if _, err := NewSweepCellTask(SweepCellRequest{SweepRequest: req, Index: 99}); err == nil {
		t.Fatal("out-of-grid cell index must be rejected")
	}
	if _, err := NewSweepRunTask(SweepRequest{Schemes: []string{"nope"}}); err == nil {
		t.Fatal("bad scheme must be rejected")
	}
}

func TestDVFSExploreTask(t *testing.T) {
	req := DVFSExploreRequest{
		Workloads: []string{"compute-memory-swing"},
		Schemes:   []string{"block"},
		Policies:  []string{"static-high", "static-low", "oracle"},
		Seed:      5,
		Scale:     8000,
	}
	task, err := NewDVFSExploreTask(req)
	if err != nil {
		t.Fatal(err)
	}
	if task.GridCells() != 3 {
		t.Fatalf("grid cells %d, want 3", task.GridCells())
	}
	var resp DVFSResponse
	if err := json.Unmarshal(mustRun(t, task), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 || len(resp.Frontier) == 0 || resp.Hash == "" || resp.Runs != nil {
		t.Fatalf("explore response %+v", resp)
	}

	// IncludeRuns changes the stored bytes, so it must change the task
	// identity — but not the reported spec hash.
	req.IncludeRuns = true
	withRuns, err := NewDVFSExploreTask(req)
	if err != nil {
		t.Fatal(err)
	}
	if withRuns.CanonicalHash() == task.CanonicalHash() {
		t.Fatal("runs flag must change the task hash")
	}
	var respRuns DVFSResponse
	if err := json.Unmarshal(mustRun(t, withRuns), &respRuns); err != nil {
		t.Fatal(err)
	}
	if len(respRuns.Runs) != 3 || respRuns.Hash != resp.Hash {
		t.Fatalf("runs response: %d runs, hash %s vs %s", len(respRuns.Runs), respRuns.Hash, resp.Hash)
	}

	for name, bad := range map[string]DVFSExploreRequest{
		"workload": {Workloads: []string{"nope"}},
		"scheme":   {Schemes: []string{"nope"}},
		"policy":   {Policies: []string{"warp"}},
		"none":     {Policies: []string{"none"}},
	} {
		if _, err := NewDVFSExploreTask(bad); err == nil {
			t.Errorf("%s: bad request accepted", name)
		}
	}
}

func TestDVFSRunTask(t *testing.T) {
	task, err := NewDVFSRunTask(DVFSRunRequest{
		Workload: "bursty-server", Scheme: "block", Policy: "oracle", Scale: 6000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(mustRun(t, task), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["workload"] != "bursty-server" || resp["policy"] != "oracle" {
		t.Fatalf("run response %+v", resp)
	}
	if _, err := NewDVFSRunTask(DVFSRunRequest{Workload: "bursty-server", Policy: "none"}); err == nil {
		t.Fatal("policy none must be rejected")
	}
	if _, err := NewDVFSRunTask(DVFSRunRequest{Workload: "nope", Policy: "oracle"}); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
}

// TestDVFSRunReusesConfig: Run schedules the config the constructor
// built and leaves it as it found it, so a second Run of the same task
// stores the same bytes.
func TestDVFSRunReusesConfig(t *testing.T) {
	task, err := NewDVFSRunTask(DVFSRunRequest{
		Workload: "compute-memory-swing", Scheme: "word", Policy: "reactive", Scale: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := task.cfg
	before.Workload.Phases = slices.Clone(task.cfg.Workload.Phases)
	first := mustRun(t, task)
	if !reflect.DeepEqual(task.cfg, before) {
		t.Fatalf("Run changed the stored config:\n%+v\nwas\n%+v", task.cfg, before)
	}
	if second := mustRun(t, task); !bytes.Equal(first, second) {
		t.Fatal("a second Run of one task stored different bytes")
	}
}

// TestRegistryDecodesEveryKind proves each registered kind decodes its
// JSON form into the same identity the typed constructors build.
func TestRegistryDecodesEveryKind(t *testing.T) {
	cases := map[string]string{
		KindCapacity:       `{"pfail":0.001,"trials":5}`,
		KindOperatingPoint: `{"min_performance":0.5}`,
		KindOverhead:       `{}`,
		KindSim:            `{"benchmark":"crafty","scheme":"block","pfail":0.001,"instructions":2000}`,
		KindSweep:          `{"pfails":[0.001],"schemes":["baseline"],"benchmarks":["crafty"],"trials":1,"instructions":1000}`,
		KindSweepCell:      `{"pfails":[0.001],"schemes":["baseline"],"benchmarks":["crafty"],"trials":1,"instructions":1000,"index":0}`,
		KindDVFSRun:        `{"workload":"bursty-server","policy":"oracle","scale":4000}`,
		KindDVFSExplore:    `{"workloads":["bursty-server"],"schemes":["block"],"policies":["oracle"],"scale":4000}`,
		KindFleetSweep:     `{"dies":50,"schemes":["block","word"],"seed":7}`,
		KindVccminPredict:  `{"dies":50,"scheme":"block","k":4,"sample":8,"seed":7}`,
	}
	for kind, params := range cases {
		task, err := engine.DecodeTask(kind, json.RawMessage(params))
		if err != nil {
			t.Errorf("%s: decode: %v", kind, err)
			continue
		}
		if task.Kind() != kind {
			t.Errorf("%s: decoded kind %q", kind, task.Kind())
		}
		if task.CanonicalHash() == "" {
			t.Errorf("%s: empty canonical hash", kind)
		}
	}
	if _, err := engine.DecodeTask(KindSim, json.RawMessage(`{"bogus":1}`)); err == nil {
		t.Error("unknown field must be rejected")
	}
}

// TestFleetHashIgnoresWorkers pins that the scheduling knob is outside
// the content address, while the dies-rows flag is inside it.
func TestFleetHashIgnoresWorkers(t *testing.T) {
	base, err := NewFleetTask(FleetRequest{Dies: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewFleetTask(FleetRequest{Dies: 100, Seed: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.CanonicalHash() != parallel.CanonicalHash() {
		t.Error("workers changed the fleet hash")
	}
	withRows, err := NewFleetTask(FleetRequest{Dies: 100, Seed: 3, IncludeDies: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.CanonicalHash() == withRows.CanonicalHash() {
		t.Error("include_dies must change the stored identity")
	}
	defaulted, err := NewFleetTask(FleetRequest{Dies: 100, Seed: 3, VSteps: 33})
	if err != nil {
		t.Fatal(err)
	}
	if base.CanonicalHash() != defaulted.CanonicalHash() {
		t.Error("explicit default must hash like the omitted field")
	}

	p1, err := NewPredictTask(PredictRequest{Dies: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPredictTask(PredictRequest{Dies: 100, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p1.CanonicalHash() != p2.CanonicalHash() {
		t.Error("workers changed the predict hash")
	}
	if p1.CanonicalHash() == base.CanonicalHash() {
		t.Error("distinct kinds must not collide")
	}
}

// TestQueryTaskRejectsNonFinitePfail: a NaN or infinite pfail bound is
// refused by NewQueryTask with an error, so the task never reaches
// CanonicalHash, whose JSON encoding cannot represent the value.
func TestQueryTaskRejectsNonFinitePfail(t *testing.T) {
	sweepReq := SweepRequest{Pfails: []float64{1e-3}, Schemes: []string{"block"}, Benchmarks: []string{"crafty"}, Trials: 1}
	ok := 1e-4
	if _, err := NewQueryTask(QueryRequest{Sweep: sweepReq, PfailMin: &ok}); err != nil {
		t.Fatalf("finite bound rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := v
		for _, req := range []QueryRequest{
			{Sweep: sweepReq, PfailMin: &v},
			{Sweep: sweepReq, PfailMax: &v},
		} {
			task, err := NewQueryTask(req)
			if err == nil {
				t.Fatalf("bound %v accepted (hash %s)", v, task.CanonicalHash())
			}
			if !strings.Contains(err.Error(), "not a finite number") {
				t.Errorf("bound %v: got %v, want a non-finite error", v, err)
			}
		}
	}
}

// TestConstructorsRejectNonFinite: a NaN or infinite variation sigma,
// gradient or performance floor is refused by the constructor with an
// error. An accepted value would reach CanonicalHash, whose JSON
// encoding panics on it, and a panic on an engine pool worker ends the
// process.
func TestConstructorsRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		v := v
		cases := map[string]func() (engine.Task, error){
			"fleet wafer_sigma": func() (engine.Task, error) { return NewFleetTask(FleetRequest{WaferSigma: &v}) },
			"fleet gradient":    func() (engine.Task, error) { return NewFleetTask(FleetRequest{Gradient: &v}) },
			"fleet die_sigma":   func() (engine.Task, error) { return NewFleetTask(FleetRequest{DieSigma: &v}) },
			"predict wafer_sigma": func() (engine.Task, error) {
				return NewPredictTask(PredictRequest{WaferSigma: &v})
			},
			"predict gradient": func() (engine.Task, error) { return NewPredictTask(PredictRequest{Gradient: &v}) },
			"predict die_sigma": func() (engine.Task, error) {
				return NewPredictTask(PredictRequest{DieSigma: &v})
			},
			"operating-point min_performance": func() (engine.Task, error) {
				return NewOperatingPointTask(OperatingPointRequest{MinPerformance: &v})
			},
		}
		for name, build := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %v: constructor panicked: %v", name, v, r)
					}
				}()
				if _, err := build(); err == nil {
					t.Errorf("%s %v: accepted, want an error", name, v)
				}
			}()
		}
	}
}
