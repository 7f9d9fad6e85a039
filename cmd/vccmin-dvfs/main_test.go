package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestPinnedInvocations holds the doc comment's usage lines (scaled
// down) to the canonical hashes their results were stored under when
// every flag was still declared by hand: binding the flags from
// tasks.DVFSExploreRequest must construct the same tasks.
func TestPinnedInvocations(t *testing.T) {
	for _, tc := range []struct{ args, hash string }{
		{"-scale 4000 -pretty=false", "27a25d80e29eb5f0c66832d4"},
		{"-policies oracle,reactive -scale 4000 -pretty=false", "4c9ee7a52acec6ac88a4ae00"},
		{"-policy oracle -scale 4000 -pretty=false", "55281d6c4d69a0f7ef96e8d2"},
		{"-workloads bursty-server -schemes block -out frontier.json -scale 4000 -pretty=false", "65ba1ae708516c29bd34181e"},
		{"-result-cache cache -scale 4000 -pretty=false", "27a25d80e29eb5f0c66832d4"},
		{"-runs -scale 4000 -workloads bursty-server -pretty=false", "53a93a9b634468b0f667b7c6"},
		{"-victim 10t -pfail 2e-3 -seed 3 -penalty 500 -interval 1000 -ipc-threshold 0.2 -workers 1 -scale 4000 -pretty=false", "ca41f70576c1e8a55487a520"},
	} {
		fs := flag.NewFlagSet("vccmin-dvfs", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		task, err := o.task()
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got := task.CanonicalHash(); got != tc.hash {
			t.Errorf("%s: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}
