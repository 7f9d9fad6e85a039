package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"vccmin/internal/tasks"
)

func parseArgs(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o
}

// TestPinnedInvocations holds single-run invocations to the canonical
// hashes their results were stored under when every flag was still
// declared by hand: binding the flags from tasks.SimRequest must
// construct the same tasks.
func TestPinnedInvocations(t *testing.T) {
	for _, tc := range []struct{ args, hash string }{
		{"-benchmark crafty -scheme block -pfail 1e-3 -pretty=false", "404797dfb0db92a1924b55ed"},
		{"-benchmark mcf -mode high -victim 10t -geom 16384x4x64 -instructions 20000 -seed 9 -pretty=false", "f6580c085812d1f3585c82f0"},
	} {
		task, err := tasks.NewSimTask(parseArgs(t, strings.Fields(tc.args)...).req)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got := task.CanonicalHash(); got != tc.hash {
			t.Errorf("%s: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}

// TestFigureParams pins figure mode's reading of the shared flags and
// its -benchmarks list syntax: elements are trimmed and empty ones
// skipped, as on every other surface.
func TestFigureParams(t *testing.T) {
	p := parseArgs(t, "-pairs", "5", "-instructions", "1000000", "-pfail", "2e-3", "-seed", "4").simParams()
	if p.FaultPairs != 5 || p.Instructions != 1_000_000 || p.Pfail != 2e-3 || p.BaseSeed != 4 || len(p.Benchmarks) != 26 {
		t.Errorf("params %+v", p)
	}
	want := parseArgs(t, "-benchmarks", "crafty,mcf").simParams().Benchmarks
	if !reflect.DeepEqual(want, []string{"crafty", "mcf"}) {
		t.Fatalf("benchmarks %q", want)
	}
	for _, list := range []string{"crafty, mcf", "crafty,,mcf", " crafty ,mcf,"} {
		if got := parseArgs(t, "-benchmarks", list).simParams().Benchmarks; !reflect.DeepEqual(got, want) {
			t.Errorf("-benchmarks %q: %q, want %q", list, got, want)
		}
	}
}
