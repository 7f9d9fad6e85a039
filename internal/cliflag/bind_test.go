package cliflag

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

type inner struct {
	Pfails []float64 `json:"pfails" flag:"pfail" help:"pfail axis"`
	Seed   int64     `json:"base_seed" flag:"seed"`
}

type outer struct {
	Grid     inner             `json:"grid"`
	GroupBy  []string          `json:"group_by,omitempty" help:"axes"`
	Where    map[string]string `json:"where,omitempty"`
	N        int               `json:"n"`
	F        float64           `json:"f"`
	Min      *float64          `json:"pfail_min,omitempty"`
	Runs     bool              `json:"runs"`
	Name     string            `json:"name"`
	Skipped  int               `json:"-"`
	Untagged int
}

func parse(t *testing.T, start outer, args ...string) (outer, *flag.FlagSet, error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Bind(fs, &start)
	return start, fs, fs.Parse(args)
}

func TestBindNamesFlags(t *testing.T) {
	_, fs, _ := parse(t, outer{})
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"f", "group-by", "n", "name", "pfail", "pfail-min", "runs", "seed", "where"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	if u := fs.Lookup("pfail").Usage; u != "pfail axis" {
		t.Errorf("usage %q, want the help tag", u)
	}
}

// TestBindUsageNamesKinds: -h names each bound flag's value kind as the
// flag package names its own, and leaves the rest of the text alone.
func TestBindUsageNamesKinds(t *testing.T) {
	var cfg struct {
		Outer   outer         `json:"outer"`
		Timeout time.Duration `json:"timeout" help:"how long"`
	}
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	var b strings.Builder
	fs.SetOutput(&b)
	Bind(fs, &cfg)
	fs.Int("plain", 3, "a flag the main declares")
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	got := b.String()
	for _, want := range []string{
		"Usage of demo:\n",
		"  -f float\n", "  -group-by list\n    \taxes\n", "  -n int\n", "  -name string\n",
		"  -pfail list\n    \tpfail axis\n", "  -pfail-min float\n", "  -runs\n", "  -seed int\n",
		"  -where list\n", "  -timeout duration\n    \thow long\n", "  -plain int\n    \ta flag the main declares (default 3)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("usage lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, " value\n") {
		t.Errorf("usage still names a value kind \"value\":\n%s", got)
	}
}

func TestBindParses(t *testing.T) {
	got, _, err := parse(t, outer{},
		"-pfail", "1e-4:1e-2:3", "-seed", "9223372036854775807", "-group-by", " scheme, ,pfail",
		"-where", "scheme=block, victim=none", "-n", "-3", "-f", "0.5", "-pfail-min", "0", "-runs", "-name", "x")
	if err != nil {
		t.Fatal(err)
	}
	zero := 0.0
	want := outer{
		Grid:    inner{Pfails: []float64{1e-4, 1e-3, 1e-2}, Seed: 1<<63 - 1},
		GroupBy: []string{"scheme", "pfail"},
		Where:   map[string]string{"scheme": "block", "victim": "none"},
		N:       -3, F: 0.5, Min: &zero, Runs: true, Name: "x",
	}
	if got.Grid.Pfails[1] != 1e-3 {
		// ParsePfails' log spacing is not exact in the middle.
		want.Grid.Pfails[1] = got.Grid.Pfails[1]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bound %+v, want %+v", got, want)
	}
}

// TestBindDefaults pins the starting struct as the default: a field
// whose flag is not given keeps its value, and a nil pointer stays nil.
func TestBindDefaults(t *testing.T) {
	half := 0.5
	start := outer{N: 7, Min: &half, Grid: inner{Pfails: []float64{1e-3, 2e-3}}, GroupBy: []string{"a", "b"}}
	got, fs, err := parse(t, start)
	if err != nil || !reflect.DeepEqual(got, start) {
		t.Fatalf("bound %+v (err %v), want the starting value %+v", got, err, start)
	}
	for name, def := range map[string]string{"n": "7", "pfail-min": "0.5", "pfail": "0.001,0.002", "group-by": "a,b", "f": "", "runs": ""} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}

	// Setting a pointer flag allocates a fresh value rather than
	// writing through the starting one.
	got, _, _ = parse(t, start, "-pfail-min", "0.25")
	if *got.Min != 0.25 || half != 0.5 {
		t.Errorf("pfail-min %v, start %v: want 0.25 and an untouched 0.5", *got.Min, half)
	}
	if got, _, _ := parse(t, outer{}); got.Min != nil {
		t.Errorf("pfail-min %v without its flag, want nil", *got.Min)
	}
}

func TestBindErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-n x", `invalid value "x" for flag -n`},
		{"-runs=2", `invalid boolean value "2" for -runs`},
		{"-pfail 1e-3:1e-4:3", `bad pfail range "1e-3:1e-4:3"`},
		{"-where scheme", `bad -where element "scheme": want axis=value`},
		{"-where a=1,a=2", `duplicate -where axis "a"`},
		{"-where =1", `bad -where element "=1": want axis=value`},
	} {
		_, _, err := parse(t, outer{}, strings.Fields(tc.args)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want it to contain %q", tc.args, err, tc.want)
		}
	}
}

func TestSetPanicsOnUnsupportedType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set into a []int did not panic")
		}
	}()
	var v []int
	Set(reflect.ValueOf(&v).Elem(), "1")
}

func TestSetDuration(t *testing.T) {
	var d time.Duration
	f := reflect.ValueOf(&d).Elem()
	if err := Set(f, "1m30s"); err != nil || d != 90*time.Second {
		t.Fatalf("Set 1m30s: %v, %v", d, err)
	}
	if got := (field{f}).String(); got != "1m30s" {
		t.Errorf("duration default prints %q, want 1m30s", got)
	}
	if err := Set(f, "30"); err == nil {
		t.Fatal("a duration without a unit was accepted")
	}
}

// TestCopy pins Copy's contract: fields match by json name, a nested
// struct's fields count as the outer struct's, and src's set fields
// dst lacks come back as flag names.
func TestCopy(t *testing.T) {
	type small struct {
		N      int      `json:"n"`
		Seed   int64    `json:"base_seed"`
		Min    *float64 `json:"pfail_min,omitempty"`
		Absent string   `json:"absent"`
	}
	half := 0.5
	src := outer{Grid: inner{Seed: 9}, N: 3, Min: &half, GroupBy: []string{"a"}, Runs: true}
	var dst small
	unmatched := Copy(&dst, &src)
	if want := (small{N: 3, Seed: 9, Min: &half}); !reflect.DeepEqual(dst, want) {
		t.Errorf("copied %+v, want %+v", dst, want)
	}
	if want := []string{"group-by", "runs"}; !reflect.DeepEqual(unmatched, want) {
		t.Errorf("unmatched %v, want %v", unmatched, want)
	}
	if unmatched := Copy(&src, &dst); unmatched != nil {
		t.Errorf("zero absent field reported: %v", unmatched)
	}
}
