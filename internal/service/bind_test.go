package service

import (
	"bufio"
	"flag"
	"io"
	"math"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vccmin/internal/cliflag"
	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

type bindAll struct {
	S    string   `json:"s,omitempty"`
	L    []string `json:"l"`
	N    int      `json:"n"`
	Seed int64    `json:"seed"`
	F    float64  `json:"f"`
	P    *float64 `json:"p,omitempty"`
	B    bool     `json:"b"`
	Skip int      `json:"-"`
}

func TestBindQuery(t *testing.T) {
	q, _ := url.ParseQuery("s=x&l=a,b&n=-3&seed=9223372036854775807&f=1e-3&p=0.5&b=true&Skip=4")
	var got bindAll
	if err := bindQuery(q, &got); err != nil {
		t.Fatal(err)
	}
	half := 0.5
	want := bindAll{S: "x", L: []string{"a", "b"}, N: -3, Seed: 1<<63 - 1, F: 1e-3, P: &half, B: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bound %+v, want %+v", got, want)
	}

	// Absent and empty parameters keep the starting value; a nil
	// pointer stays nil.
	start := bindAll{N: 20_000, Seed: 7}
	got = start
	q, _ = url.ParseQuery("n=&s=")
	if err := bindQuery(q, &got); err != nil || !reflect.DeepEqual(got, start) {
		t.Fatalf("bound %+v (err %v), want the starting value %+v", got, err, start)
	}

	for _, b := range []string{"1", "0", "true", "false"} {
		q, _ = url.ParseQuery("b=" + b)
		if err := bindQuery(q, &got); err != nil {
			t.Errorf("b=%s: %v", b, err)
		}
	}

	for raw, msg := range map[string]string{
		"n=x":                      `bad n "x"`,
		"n=1.5":                    `bad n "1.5"`,
		"seed=9223372036854775808": `bad seed "9223372036854775808"`,
		"f=abc":                    `bad f "abc"`,
		"p=-":                      `bad p "-"`,
		"b=2":                      `bad b "2"`,
		"b=-1":                     `bad b "-1"`,
	} {
		q, _ = url.ParseQuery(raw)
		if err := bindQuery(q, &bindAll{}); err == nil || err.Error() != msg {
			t.Errorf("%s: %v, want %q", raw, err, msg)
		}
	}
}

// FuzzBindSurfaces feeds one set of name=value pairs to both text
// surfaces of the two requests a GET route and a CLI both bind,
// FleetRequest and DVFSExploreRequest: the GET query (bindQuery) and the
// command line (cliflag.Bind, then flag parsing). Both must fail to
// parse, or both must construct tasks with the same canonical hash or
// the same error text.
func FuzzBindSurfaces(f *testing.F) {
	f.Add(false, "dies=500&schemes=block, word&wafer_sigma=0.3&include_dies=1&seed=7")
	f.Add(false, "dies=-5&vsteps=x&gradient=0&capacity_floor=1.5&geom=1x1x1&workers=3")
	f.Add(false, "die_sigma=NaN&dies_per_wafer=0&seed=9223372036854775808")
	f.Add(true, "policies=oracle&seed=-1&runs=true&pfail=2e-3")
	f.Add(true, "workloads=bursty-server&schemes=block&victim=10t&penalty=-1&ipc_threshold=0.2&scale=4000&interval=7")
	f.Add(true, "policies=none&runs=2&pfail=1")
	f.Fuzz(func(t *testing.T, dvfs bool, pairs string) {
		if dvfs {
			bindSurfacesAgree(t, pairs, tasks.NewDVFSExploreTask)
		} else {
			bindSurfacesAgree(t, pairs, tasks.NewFleetTask)
		}
	})
}

// bindSurfacesAgree binds the pairs of "name=value&..." that name a
// field of R (empty values and repeats dropped, as a GET drops them)
// through both surfaces and constructs a task from each.
func bindSurfacesAgree[R any, T engine.Task](t *testing.T, pairs string, build func(R) (T, error)) {
	var get, cli R
	names := map[string]bool{}
	cliflag.Walk(&get, func(name string, _ reflect.StructTag, _ reflect.Value) error {
		names[name] = true
		return nil
	})
	q := url.Values{}
	var args []string
	for _, p := range strings.Split(pairs, "&") {
		k, v, _ := strings.Cut(p, "=")
		if !names[k] || v == "" || q.Has(k) {
			continue
		}
		q.Set(k, v)
		args = append(args, "-"+strings.ReplaceAll(k, "_", "-")+"="+v)
	}
	getErr := bindQuery(q, &get)
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cliflag.Bind(fs, &cli)
	cliErr := fs.Parse(args)
	if (getErr == nil) != (cliErr == nil) {
		t.Fatalf("%q: GET binds with error %v, the CLI with %v", pairs, getErr, cliErr)
	}
	if getErr != nil {
		return
	}
	gt, gerr := build(get)
	ct, cerr := build(cli)
	switch {
	case (gerr == nil) != (cerr == nil):
		t.Fatalf("%q: GET constructs with error %v, the CLI with %v", pairs, gerr, cerr)
	case gerr != nil:
		if gerr.Error() != cerr.Error() {
			t.Fatalf("%q: GET error %q, CLI error %q", pairs, gerr, cerr)
		}
	case gt.CanonicalHash() != ct.CanonicalHash():
		t.Fatalf("%q: GET hash %s, CLI hash %s", pairs, gt.CanonicalHash(), ct.CanonicalHash())
	}
}

func TestPageWindow(t *testing.T) {
	for _, tc := range []struct {
		p             page
		total, lo, hi int
	}{
		{page{}, 5, 0, 5},
		{page{Offset: 2}, 5, 2, 5},
		{page{Offset: 2, Limit: 2}, 5, 2, 4},
		{page{Offset: 4, Limit: 9}, 5, 4, 5},
		{page{Offset: 9}, 5, 5, 5},
		{page{Limit: math.MaxInt}, 5, 0, 5},
	} {
		if lo, hi := tc.p.window(tc.total); lo != tc.lo || hi != tc.hi {
			t.Errorf("%+v.window(%d) = [%d,%d), want [%d,%d)", tc.p, tc.total, lo, hi, tc.lo, tc.hi)
		}
	}
	for _, raw := range []string{"offset=-1", "limit=-1", "offset=x"} {
		q, _ := url.ParseQuery(raw)
		if _, err := bindPage(q); err == nil {
			t.Errorf("%s accepted", raw)
		}
	}
}

// TestOpenAPIQueryParams holds docs/openapi.yaml to the structs: every
// GET route that documents query parameters must bind a struct, and
// its documented names must equal that struct's json tags.
func TestOpenAPIQueryParams(t *testing.T) {
	bound := map[string]any{
		"/v1/capacity":           tasks.CapacityRequest{},
		"/v1/operating-point":    tasks.OperatingPointRequest{},
		"/v1/dvfs":               tasks.DVFSExploreRequest{},
		"/v1/fleet":              tasks.FleetRequest{},
		"/v1/sweeps":             page{},
		"/v1/sweeps/{id}/rows":   page{},
		"/v1/sweeps/{id}/stream": streamQuery{},
	}
	documented := openAPIGetQueryParams(t, "../../docs/openapi.yaml")
	for path := range documented {
		if _, ok := bound[path]; !ok {
			t.Errorf("GET %s documents query parameters but binds no struct", path)
		}
	}
	for path, v := range bound {
		var tags []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			tags = append(tags, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
		}
		slices.Sort(tags)
		doc := documented[path]
		slices.Sort(doc)
		if !slices.Equal(doc, tags) {
			t.Errorf("GET %s: openapi documents %v, the struct binds %v", path, doc, tags)
		}
	}
}

var (
	specPathRe  = regexp.MustCompile(`^  (/\S+):\s*$`)
	specOpRe    = regexp.MustCompile(`^    (\w+):`)
	specQueryRe = regexp.MustCompile(`name: (\w+), in: query`)
)

// openAPIGetQueryParams reads the query parameter names of every GET
// operation in the spec, keyed by path.
func openAPIGetQueryParams(t *testing.T, file string) map[string][]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]string{}
	path, op := "", ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := specPathRe.FindStringSubmatch(line); m != nil {
			path, op = m[1], ""
		} else if m := specOpRe.FindStringSubmatch(line); m != nil {
			op = m[1]
		} else if m := specQueryRe.FindStringSubmatch(line); m != nil && op == "get" {
			out[path] = append(out[path], m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no GET query parameters found in the spec (did its shape change?)")
	}
	return out
}
