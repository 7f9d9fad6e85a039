package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"vccmin/internal/tasks"
)

func hashOf(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	task, err := tasks.NewSweepRunTask(o.req)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return task.CanonicalHash()
}

// TestPinnedInvocations holds the doc comment's usage lines to the
// canonical hashes their results were stored under when every flag was
// still declared by hand: binding the flags from tasks.SweepRequest must
// construct the same grids.
func TestPinnedInvocations(t *testing.T) {
	for _, tc := range []struct{ args, hash string }{
		{"-pfail 1e-4:1e-3:5 -schemes block,word -out cells.jsonl", "3b7400795f7dc3e759db5a42"},
		{"-pfail 1e-4:1e-3:5 -schemes block,word -shards 4 -shard 2 -out cells.jsonl", "5d4130b82376dd0251fe7afe"},
		{"-resume -out cells.jsonl", "33e4f6daa6b6aa84a33f774e"},
		{"-result-cache cache -pfail 1e-4:1e-3:5 -schemes block,word", "3b7400795f7dc3e759db5a42"},
		{"-benchmarks crafty,mcf -trials 1 -instructions 5000", "d3a5188b2a4c8bcf6f83ea2c"},
	} {
		if got := hashOf(t, strings.Fields(tc.args)...); got != tc.hash {
			t.Errorf("%s: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}

// TestListFlagsTrim pins the list syntax every surface shares:
// elements are trimmed and empty ones skipped.
func TestListFlagsTrim(t *testing.T) {
	want := hashOf(t, "-benchmarks", "crafty,mcf", "-schemes", "block,word")
	for _, args := range [][]string{
		{"-benchmarks", "crafty, mcf", "-schemes", "block, word"},
		{"-benchmarks", "crafty,,mcf,", "-schemes", " block,word "},
	} {
		if got := hashOf(t, args...); got != want {
			t.Errorf("%q: hash %s, want %s", args, got, want)
		}
	}
}
