package service

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"vccmin/internal/cliflag"
	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// construct adapts a task constructor to take its request as JSON, so
// each table row spells its input once for the batch item, the POST
// body and the bare constructor.
func construct[R any, T engine.Task](build func(R) (T, error)) func(string) (engine.Task, error) {
	return func(params string) (engine.Task, error) {
		var req R
		if err := json.Unmarshal([]byte(params), &req); err != nil {
			return nil, err
		}
		return build(req)
	}
}

// bindArgs adapts a task constructor to take its request as command-line
// arguments, bound the way the CLIs bind them: cliflag.Bind on a fresh
// flag set over a zero request.
func bindArgs[R any, T engine.Task](build func(R) (T, error)) func([]string) (engine.Task, error) {
	return func(args []string) (engine.Task, error) {
		var req R
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		cliflag.Bind(fs, &req)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		return build(req)
	}
}

// errorMessage returns an error envelope's message, failing unless the
// response is a 400.
func errorMessage(t *testing.T, resp *http.Response, what string) string {
	t.Helper()
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var env errorEnvelope
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &env) != nil {
		t.Fatalf("%s = %d %s, want a 400 envelope", what, resp.StatusCode, b)
	}
	return env.Error.Message
}

// TestEntryPointsAgree sends each bad input through every entry point
// that can express it — GET (where the route exists), the kind's own
// POST route, a POST /v1/batch item, the CLI flag binding (where a CLI
// binds the kind's request) and the bare tasks constructor — and
// requires the same message from each. Validation lives in the
// constructors; size limits are service-only, so for them the bare
// constructor and the CLI binding accept the request and the server's
// admit gate rejects it.
func TestEntryPointsAgree(t *testing.T) {
	s, ts := newTestServer(t)
	constructors := map[string]func(string) (engine.Task, error){
		tasks.KindCapacity:      construct(tasks.NewCapacityTask),
		tasks.KindDVFSExplore:   construct(tasks.NewDVFSExploreTask),
		tasks.KindFleetSweep:    construct(tasks.NewFleetTask),
		tasks.KindVccminPredict: construct(tasks.NewPredictTask),
		tasks.KindSweep:         construct(tasks.NewSweepRunTask),
		tasks.KindQuery:         construct(tasks.NewQueryTask),
	}
	clis := map[string]func([]string) (engine.Task, error){
		tasks.KindDVFSExplore: bindArgs(tasks.NewDVFSExploreTask),
		tasks.KindFleetSweep:  bindArgs(tasks.NewFleetTask),
		tasks.KindSweep:       bindArgs(tasks.NewSweepRunTask),
		tasks.KindQuery:       bindArgs(tasks.NewQueryTask),
	}
	// posts maps a kind to its POST route and the body key that wraps
	// the params ("" = the params are the body).
	posts := map[string][2]string{
		tasks.KindFleetSweep:    {"/v1/fleet", "sweep"},
		tasks.KindVccminPredict: {"/v1/fleet", "predict"},
		tasks.KindSweep:         {"/v1/sweeps", ""},
		tasks.KindQuery:         {"/v1/query", ""},
	}
	cases := []struct {
		name   string
		get    string // "" when no GET route takes the input
		kind   string
		params string
		cli    string // the CLI's arguments; "" when no CLI binds the kind
		limit  bool   // a service size limit rather than validation
		want   string
	}{
		{"oversized dies", "/v1/fleet?dies=300000", tasks.KindFleetSweep,
			`{"dies":300000}`, "-dies 300000", true, "fleet has 300000 dies, limit 200000"},
		{"oversized predict dies", "", tasks.KindVccminPredict,
			`{"dies":300000}`, "", true, "fleet has 300000 dies, limit 200000"},
		{"include_dies over the row cap", "/v1/fleet?dies=20000&include_dies=1", tasks.KindFleetSweep,
			`{"dies":20000,"include_dies":true}`, "-dies 20000 -include-dies", true, "include_dies limited to 10000 dies, fleet has 20000"},
		{"predict sample over its cap", "", tasks.KindVccminPredict,
			`{"dies":10000,"sample":5000}`, "", true, "sample 5000 exceeds limit 2000"},
		{"oversized vsteps", "/v1/fleet?dies=1&vsteps=1000000", tasks.KindFleetSweep,
			`{"dies":1,"vsteps":1000000}`, "-dies 1 -vsteps 1000000", true, "vsteps 1000000 exceeds limit 1024"},
		{"negative fleet seed", "/v1/fleet?seed=-4", tasks.KindFleetSweep,
			`{"seed":-4}`, "-seed -4", false, "seed -4 negative"},
		{"negative predict seed", "", tasks.KindVccminPredict,
			`{"seed":-4}`, "", false, "seed -4 negative"},
		{"negative predict k", "", tasks.KindVccminPredict,
			`{"k":-5,"dies":64}`, "", false, "k -5 negative"},
		{"negative predict sample", "", tasks.KindVccminPredict,
			`{"sample":-3,"dies":64}`, "", false, "sample -3 negative"},
		{"negative capacity seed", "/v1/capacity?seed=-4", tasks.KindCapacity,
			`{"seed":-4}`, "", false, "seed -4 negative"},
		{"negative trials", "/v1/capacity?trials=-1", tasks.KindCapacity,
			`{"trials":-1}`, "", false, "trials -1 negative"},
		{"negative dvfs seed", "/v1/dvfs?policies=oracle&seed=-1", tasks.KindDVFSExplore,
			`{"policies":["oracle"],"seed":-1}`, "-policies oracle -seed -1", false, "seed -1 negative"},
		{"unknown sweep benchmark", "", tasks.KindSweep,
			`{"benchmarks":["crafty","nope"]}`, "-benchmarks crafty,nope", false, `sweep: workload: unknown benchmark "nope"`},
		{"unknown query benchmark", "", tasks.KindQuery,
			`{"sweep":{"benchmarks":["nope"]}}`, "-benchmarks nope", false, `sweep: workload: unknown benchmark "nope"`},
	}

	// All bad items ride in one batch next to a good sibling.
	items := []map[string]any{{"kind": tasks.KindOverhead}}
	for _, tc := range cases {
		items = append(items, map[string]any{"kind": tc.kind, "params": json.RawMessage(tc.params)})
	}
	var batch BatchResponse
	if hr := postJSON(t, ts.URL+"/v1/batch", map[string]any{"requests": items}, &batch); hr.StatusCode != 200 {
		t.Fatalf("batch: status %d", hr.StatusCode)
	}
	if r := batch.Results[0]; r.Error != "" || len(r.Value) == 0 {
		t.Fatalf("good sibling failed: %+v", r)
	}

	// limited applies the service's size limits to a constructed task.
	limited := func(t *testing.T, limit bool, task engine.Task, err error) error {
		t.Helper()
		if limit {
			if err != nil {
				t.Fatalf("constructor rejected a size-limit input a local run may make: %v", err)
			}
			err = s.admit(task)
		}
		return err
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := batch.Results[i+1].Error; got != tc.want {
				t.Errorf("batch item: %q, want %q", got, tc.want)
			}
			if tc.get != "" {
				resp, err := http.Get(ts.URL + tc.get)
				if err != nil {
					t.Fatal(err)
				}
				if got := errorMessage(t, resp, "GET "+tc.get); got != tc.want {
					t.Errorf("GET: %q, want %q", got, tc.want)
				}
			}
			if post, ok := posts[tc.kind]; ok {
				body := tc.params
				if post[1] != "" {
					body = `{"` + post[1] + `":` + tc.params + `}`
				}
				resp, err := http.Post(ts.URL+post[0], "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if got := errorMessage(t, resp, "POST "+post[0]+" "+body); got != tc.want {
					t.Errorf("POST %s: %q, want %q", post[0], got, tc.want)
				}
			}
			if tc.cli != "" {
				task, err := clis[tc.kind](strings.Fields(tc.cli))
				if err = limited(t, tc.limit, task, err); err == nil || err.Error() != tc.want {
					t.Errorf("CLI %s: %v, want %q", tc.cli, err, tc.want)
				}
			}
			task, err := constructors[tc.kind](tc.params)
			if err = limited(t, tc.limit, task, err); err == nil || err.Error() != tc.want {
				t.Errorf("constructor: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestNonFiniteRejected covers the inputs only the text surfaces can
// spell: a NaN or infinite float. GET and the CLI binding both reject
// one while binding: a task holding one has no canonical hash, and the
// engine hashes a task on a pool worker, outside any handler's panic
// recovery, so one such GET would take the server down.
func TestNonFiniteRejected(t *testing.T) {
	_, ts := newTestServer(t)
	clis := map[string]func([]string) (engine.Task, error){
		tasks.KindDVFSExplore: bindArgs(tasks.NewDVFSExploreTask),
		tasks.KindFleetSweep:  bindArgs(tasks.NewFleetTask),
	}
	for _, tc := range []struct{ get, name, value, kind string }{
		{"/v1/fleet", "die_sigma", "NaN", tasks.KindFleetSweep},
		{"/v1/fleet", "capacity_floor", "-Inf", tasks.KindFleetSweep},
		{"/v1/dvfs", "ipc_threshold", "Infinity", tasks.KindDVFSExplore},
		{"/v1/dvfs", "pfail", "nan", tasks.KindDVFSExplore},
		{"/v1/capacity", "pfail", "NaN", ""},
		{"/v1/operating-point", "min_performance", "inf", ""},
	} {
		get := tc.get + "?" + tc.name + "=" + tc.value
		resp, err := http.Get(ts.URL + get)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := errorMessage(t, resp, "GET "+get), `bad `+tc.name+` "`+tc.value+`"`; got != want {
			t.Errorf("GET %s: %q, want %q", get, got, want)
		}
		if tc.kind == "" {
			continue
		}
		flagName := "-" + strings.ReplaceAll(tc.name, "_", "-")
		_, err = clis[tc.kind]([]string{flagName, tc.value})
		if want := `invalid value "` + tc.value + `" for flag ` + flagName; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("CLI %s %s: %v, want %q", flagName, tc.value, err, want)
		}
	}
}

// TestAdmitAtTheLimits pins each cap as inclusive: a request exactly at
// a limit is admitted.
func TestAdmitAtTheLimits(t *testing.T) {
	s, _ := newTestServer(t)
	for kind, params := range map[string]string{
		tasks.KindFleetSweep:    `{"dies":200000,"vsteps":1024}`,
		tasks.KindVccminPredict: `{"dies":200000,"sample":2000}`,
	} {
		task, err := engine.DecodeTask(kind, json.RawMessage(params))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.admit(task); err != nil {
			t.Errorf("%s %s: %v", kind, params, err)
		}
	}
	rows, err := tasks.NewFleetTask(tasks.FleetRequest{Dies: 10_000, IncludeDies: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.admit(rows); err != nil {
		t.Errorf("include_dies at the row cap: %v", err)
	}
}
