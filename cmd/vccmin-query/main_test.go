package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"vccmin/internal/colstore"
	"vccmin/internal/tasks"
)

func construct(t *testing.T, args ...string) tasks.QueryTask {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-query", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	task, err := tasks.NewQueryTask(o.req)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return task
}

// TestPinnedInvocations holds the doc comment's usage lines (scaled
// down) to the canonical hashes their results were stored under when
// every flag was still declared by hand: binding the flags from
// tasks.QueryRequest must construct the same queries.
func TestPinnedInvocations(t *testing.T) {
	grid := []string{"-pfail", "1e-4:1e-3:5", "-schemes", "block,word"}
	for _, tc := range []struct {
		args []string
		hash string
	}{
		{append(grid, "-group-by", "scheme", "-pretty=false"), "abaa2909ffde8e670478e1ae"},
		{append(grid, "-rows", "cells.jsonl", "-group-by", "pfail,scheme", "-metrics", "mean_ipc", "-pretty=false"), "41c84486b943d6c370e0600b"},
		{[]string{"-where", "scheme=block", "-pfail-max", "5e-4", "-group-by", "pfail", "-pretty=false"}, "8c09642dff59b0e29babca2c"},
		{append([]string{"-result-cache", "cache"}, append(grid, "-group-by", "scheme")...), "abaa2909ffde8e670478e1ae"},
		{[]string{"-where", "scheme=block, victim=none", "-pfail-min", "1e-4", "-group-by", "pfail,scheme",
			"-benchmarks", "crafty,mcf", "-trials", "1", "-instructions", "5000", "-pretty=false"}, "39ff0c44b74b0285118d12a5"},
	} {
		if got := construct(t, tc.args...).CanonicalHash(); got != tc.hash {
			t.Errorf("%q: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}

// TestExplicitZeroBound pins that an explicit -pfail-min 0 or
// -pfail-max 0 sets a bound of 0, as the same field does in a
// POST /v1/query body; omitting the flag means no bound.
func TestExplicitZeroBound(t *testing.T) {
	none := construct(t, "-group-by", "pfail")
	for _, name := range []string{"-pfail-min", "-pfail-max"} {
		task := construct(t, "-group-by", "pfail", name, "0")
		b := task.Req.PfailMin
		if name == "-pfail-max" {
			b = task.Req.PfailMax
		}
		if b == nil || *b != 0 {
			t.Errorf("%s 0: bound %v, want an explicit 0", name, b)
		}
		if task.CanonicalHash() == none.CanonicalHash() {
			t.Errorf("%s 0 hashes like the unbounded query", name)
		}
	}
	if none.Req.PfailMin != nil || none.Req.PfailMax != nil {
		t.Errorf("no bound flags: bounds %v, %v, want nil", none.Req.PfailMin, none.Req.PfailMax)
	}
}

// TestHelpListsLiveNames holds the help tags, which are constants, to
// the axis and default-metric lists they spell out.
func TestHelpListsLiveNames(t *testing.T) {
	fs := flag.NewFlagSet("vccmin-query", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	for name, list := range map[string][]string{"group-by": colstore.Axes, "metrics": tasks.DefaultQueryMetrics} {
		if u := fs.Lookup(name).Usage; !strings.Contains(u, strings.Join(list, ",")) {
			t.Errorf("-%s usage %q does not list %v", name, u, list)
		}
	}
}
