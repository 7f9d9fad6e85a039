package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSymbolKey(t *testing.T) {
	cases := map[string]string{
		"vccmin/internal/sim.Run":                                        "vccmin/internal/sim.Run",
		"vccmin/internal/par.(*run[go.shape.struct {}]).claim":           "vccmin/internal/par.(*run).claim",
		"vccmin/internal/colstore.(*idAssigner[go.shape.uint64]).id":     "vccmin/internal/colstore.(*idAssigner).id",
		"p.Map[go.shape.map[string][]struct { a [2]int; b func() }].Get": "p.Map.Get",
		"p.F[go.shape.int,go.shape.string]":                              "p.F",
		"p.F.func1":                                                      "p.F",
		"p.F.func2.1":                                                    "p.F",
		"p.(*T).M.deferwrap1":                                            "p.(*T).M",
		"p.F.func1.gowrap3":                                              "p.F",
		"p.(*T).M-fm":                                                    "p.(*T).M",
		"p.init.0":                                                       "p.init",
		"main.main":                                                      "example.com/cmd/x.main",
		"main.run.func1":                                                 "example.com/cmd/x.run",
		"type:*p.T":                                                      "type:*p.T",
		"p.(*T).M.arginfo1":                                              "p.(*T).M.arginfo1",
		"p.function":                                                     "p.function",
		"go:itab.*vccmin/internal/engine.memStore,vccmin/internal/engine.st": "go:itab.*vccmin/internal/engine.memStore,vccmin/internal/engine.st",
	}
	for sym, want := range cases {
		if got := symbolKey(sym, "example.com/cmd/x"); got != want {
			t.Errorf("symbolKey(%q) = %q, want %q", sym, got, want)
		}
	}
}

// fixture parses testdata/dump.txt and the declarations of testdata/p.
func fixture(t *testing.T) (*dump, []decl) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "dump.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := parseDump(f)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := declarations("testdata", []listedPackage{{
		ImportPath: "example.com/p",
		Name:       "p",
		Dir:        filepath.Join("testdata", "p"),
		GoFiles:    []string{"p.go"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return d, decls
}

func TestParseDumpFixture(t *testing.T) {
	d, decls := fixture(t)
	reached := map[string]bool{
		"example.com/p.(*T).String":   true, // an interface edge
		"example.com/p.V.Value":       true, // its pointer wrapper
		"example.com/p.(*box).claim":  true, // a shape instantiation
		"example.com/p.box.peek":      true, // a nested shape with spaces
		"example.com/p.Generic":       true,
		"example.com/p.Used":          true,
		"example.com/p.deferred":      true, // its deferwrap closure
		"example.com/p.spawner":       true, // a go statement in its closure
		"example.com/p.init":          true,
		"example.com/p.hook":          false,
		"example.com/p.refCopy":       false,
		"example.com/p.unused":        false,
		"example.com/cmd/tool.helper": true, // a method value in another main
		"example.com/cmd/other.main":  true,
	}
	seen := map[string]bool{}
	for _, dc := range decls {
		seen[dc.Key] = true
		if want, ok := reached[dc.Key]; !ok {
			t.Errorf("unexpected declaration %s at %s", dc.Key, dc.Pos)
		} else if d.reached[dc.Key] != want {
			t.Errorf("%s reached = %v, want %v", dc.Key, d.reached[dc.Key], want)
		}
	}
	for key, want := range reached {
		if !strings.HasPrefix(key, "example.com/p.") {
			if d.reached[key] != want {
				t.Errorf("%s reached = %v, want %v", key, d.reached[key], want)
			}
		} else if !seen[key] {
			t.Errorf("%s not declared by testdata/p", key)
		}
	}
	if want := map[string]int{"example.com/cmd/tool": 15, "example.com/cmd/other": 3}; !reflect.DeepEqual(d.edges, want) {
		t.Errorf("edges per binary = %v, want %v", d.edges, want)
	}
}

func TestParseDumpRejectsOtherLines(t *testing.T) {
	for _, in := range []string{
		"main.main -> p.F\n",                        // an edge before any header
		"# example.com/cmd/x\nmain.main => p.F\n",   // an unknown arrow
		"# example.com/cmd/x\nlink: warning: odd\n", // anything else
		"# example.com/cmd/x\nmain.main->p.F\n",     // no spaces
	} {
		if _, err := parseDump(strings.NewReader(in)); err == nil {
			t.Errorf("parseDump accepted %q", in)
		}
	}
}

func TestCheckFloor(t *testing.T) {
	d, _ := fixture(t)
	both := []string{"example.com/cmd/tool", "example.com/cmd/other"}
	if err := d.checkFloor(both, 3); err != nil {
		t.Errorf("fixture at a floor of 3: %v", err)
	}
	for _, c := range []struct {
		binaries []string
		floor    int
		want     string
	}{
		{both, 4, "example.com/cmd/other has 3 edges, fewer than the floor of 4"},
		{append(both, "example.com/cmd/missing"), 1, "no dependency dump for example.com/cmd/missing"},
	} {
		if err := d.checkFloor(c.binaries, c.floor); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkFloor(%v, %d) = %v, want an error containing %q", c.binaries, c.floor, err, c.want)
		}
	}
	nomain, err := parseDump(strings.NewReader("# example.com/cmd/x\nruntime.main -> p.F\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nomain.checkFloor([]string{"example.com/cmd/x"}, 1); err == nil || !strings.Contains(err.Error(), "does not reach example.com/cmd/x.main") {
		t.Errorf("a dump that never reaches its main: %v", err)
	}
}

func TestCheck(t *testing.T) {
	d, decls := fixture(t)
	allow, err := parseAllowlist(`
# comment
example.com/p.hook test-hook Other packages' tests call it.
example.com/p.refCopy reference-copy A hot path inlines it by hand.
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/p.go:41: example.com/p.unused is reached by no binary; delete it, move it into a _test.go file, or allowlist it"}
	if got := check(decls, d.reached, allow); !reflect.DeepEqual(got, want) {
		t.Errorf("check = %q, want %q", got, want)
	}

	// Stale entries: one for a reached func, one for a deleted one.
	allow, err = parseAllowlist(`example.com/p.hook test-hook Tests call it.
example.com/p.unused test-hook Tests call it.
example.com/p.Used test-hook Tests call it.
example.com/p.gone reference-copy It was inlined.
`)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		"allowlist.txt:3: example.com/p.Used is reached by a binary; drop the entry",
		"allowlist.txt:4: example.com/p.gone is no longer declared; drop the entry",
		"p/p.go:39: example.com/p.refCopy is reached by no binary; delete it, move it into a _test.go file, or allowlist it",
	}
	if got := check(decls, d.reached, allow); !reflect.DeepEqual(got, want) {
		t.Errorf("check = %q, want %q", got, want)
	}
}

func TestParseAllowlistRejects(t *testing.T) {
	for _, in := range []string{
		"p.F test-hook",                              // no reason given
		"p.F facade Part of the API.",                // not one of the two reasons
		"p.F test-hook Tests.\np.F test-hook Again.", // listed twice
	} {
		if _, err := parseAllowlist(in); err == nil {
			t.Errorf("parseAllowlist accepted %q", in)
		}
	}
}

// TestAllowlist parses the checked-in list, so a malformed entry fails
// go test as well as make check.
func TestAllowlist(t *testing.T) {
	if _, err := parseAllowlist(allowlistText); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMain(t *testing.T) {
	decls := []decl{
		{Key: "vccmin.RunSim", Facade: true},
		{Key: "vccmin/internal/sim.Run"},
		{Key: "vccmin.NewEngine", Facade: true},
	}
	src, err := facadeMain(decls)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(src); !strings.Contains(s, "\tvccmin.RunSim,\n\tvccmin.NewEngine,\n}") || strings.Contains(s, "internal/sim") {
		t.Errorf("facade main roots the wrong funcs:\n%s", s)
	}
	decls = append(decls, decl{Key: "vccmin.Map", Pos: "vccmin.go:9", Facade: true, Generic: true})
	if _, err := facadeMain(decls); err == nil || !strings.Contains(err.Error(), "vccmin.go:9") {
		t.Errorf("a generic facade func: %v", err)
	}
}
