package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func parseArgs(t *testing.T, args string) *options {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-fleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, strings.Fields(args))
	if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return o
}

// TestPinnedInvocations holds the doc comment's usage lines (scaled
// down) to the canonical hashes their results were stored under when
// every flag was still declared by hand: binding the flags from
// tasks.FleetRequest must construct the same tasks.
func TestPinnedInvocations(t *testing.T) {
	for _, tc := range []struct{ args, hash string }{
		{"-pretty=false", "fdc5e1eb8f3f50aec1835aec"},
		{"-wafer-sigma 0 -die-sigma 0", "fdc5e1eb8f3f50aec1835aec"}, // 0 = the default
		{"-dies 2000 -schemes block,word -pretty=false", "f4d9489c952c91198ee0ea4e"},
		{"-dies 2000 -wafer-sigma 0.4 -pretty=false", "85aa25fefe2e06296f818110"},
		{"-include-dies -dies 200 -out f.json -pretty=false", "44216d640540931031e8754b"},
		{"-predict 6 -sample 256 -pretty=false", "b150465c99211c4c81e29619"},
		{"-result-cache cache -dies 500 -pretty=false", "90306bc923d342090ac54e06"},
		{"-predict 4 -sample 32 -schemes word -gradient 0.2 -capacity-floor 0.8 -dies-per-wafer 32 -seed 7 -workers 2 -pretty=false", "6d4dbb1bcfaba96e4469adaf"},
		{"-dies 300 -die-sigma 0.3 -vsteps 17 -geom 16384x4x64 -workers 1 -pretty=false", "5c1a5ed215830ec926496984"},
	} {
		task, err := parseArgs(t, tc.args).task()
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got := task.CanonicalHash(); got != tc.hash {
			t.Errorf("%s: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}

func TestPredictTakesOneScheme(t *testing.T) {
	_, err := parseArgs(t, "-predict 6 -schemes block,word").task()
	if err == nil || err.Error() != "-predict takes one scheme, got 2" {
		t.Fatalf("err %v", err)
	}
}

// TestPredictRejectsFleetFlags: a fleet-sweep flag the prediction study
// has no field for, -sample without -predict and a negative -predict
// fail by name instead of being dropped.
func TestPredictRejectsFleetFlags(t *testing.T) {
	for args, want := range map[string]string{
		"-predict 6 -vsteps 17":                     "-predict does not take -vsteps",
		"-predict 6 -include-dies":                  "-predict does not take -include-dies",
		"-predict 6 -vsteps 17 -schemes word,block": "-predict takes one scheme, got 2",
		"-predict 6 -sample -3":                     "sample -3 negative",
		"-dies 20 -sample 5":                        "-sample needs -predict",
		"-dies 20 -predict -3":                      "-predict -3 negative",
	} {
		if _, err := parseArgs(t, args).task(); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", args, err, want)
		}
	}
}
