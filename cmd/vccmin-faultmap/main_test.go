package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPinnedOutputs holds three invocations' reports to the bytes the
// command printed when faults.Generate took its gaps straight from
// math.Log: a drawn map (seed 42), a clustered one and a Monte Carlo
// summary. The gap sampler is exact, so these must never move.
func TestPinnedOutputs(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-seed 42", `fault map 32KB 8-way 64B/block (64 sets, 24-bit tag): 280 faulty cells in 210/512 blocks

block-disable: 302/512 blocks enabled (59.0% capacity)
analytic expectation (Eq. 2): 58.4%

enabled-ways histogram (sets x ways):
  1 ways:   1 sets
  2 ways:   1 sets
  3 ways:   8 sets
  4 ways:  20 sets
  5 ways:  17 sets
  6 ways:  10 sets
  7 ways:   6 sets
  8 ways:   1 sets

word-disable: fit=true (failed subblocks: 0/1024)
  low-voltage geometry: 16KB 4-way 64B/block (64 sets, 24-bit tag), +1 cycle latency

incremental word-disable: 87 full / 169 half / 0 disabled pairs (67.0% capacity)

bit-fix: fit=false (3/16384 groups failed), low-voltage 24KB 6-way 64B/block (64 sets, 24-bit tag)
`},
		{"-cluster 4", `fault map 32KB 8-way 64B/block (64 sets, 24-bit tag): 280 faulty cells in 67/512 blocks

block-disable: 445/512 blocks enabled (86.9% capacity)
analytic expectation (Eq. 2): 58.4%

enabled-ways histogram (sets x ways):
  3 ways:   1 sets
  4 ways:   1 sets
  5 ways:   2 sets
  6 ways:  10 sets
  7 ways:  32 sets
  8 ways:  18 sets

word-disable: fit=true (failed subblocks: 0/1024)
  low-voltage geometry: 16KB 4-way 64B/block (64 sets, 24-bit tag), +1 cycle latency

incremental word-disable: 196 full / 60 half / 0 disabled pairs (88.3% capacity)

bit-fix: fit=false (59/16384 groups failed), low-voltage 24KB 6-way 64B/block (64 sets, 24-bit tag)
`},
		{"-trials 50", `50 maps of 32KB 8-way 64B/block (64 sets, 24-bit tag) at pfail=0.001 (cluster=1)
block-disable capacity: mean=58.1% sd=2.22pp min=53.5% max=64.1%
analytic (Eqs. 2-3):    mean=58.4% sd=2.18pp
worst set associativity seen: 0 ways
word-disable whole-cache failures: 0/50 (analytic 1.64e-03)
`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		if got := stdout.String(); got != tc.want {
			t.Errorf("%s: stdout\n%s\nwant\n%s", tc.args, got, tc.want)
		}
	}
}

// TestBadFlagValues: a pfail that is NaN or outside [0,1], and a
// cluster size or trial count below 1, exit 2 naming the flag and
// print no report.
func TestBadFlagValues(t *testing.T) {
	for args, flag := range map[string]string{
		"-pfail NaN":           "-pfail",
		"-pfail -0.5":          "-pfail",
		"-pfail Inf":           "-pfail",
		"-pfail 1.0000001":     "-pfail",
		"-cluster 0 -trials 3": "-cluster",
		"-cluster -4":          "-cluster",
		"-trials 0":            "-trials",
		"-trials -1 -seed 9":   "-trials",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "vccmin-faultmap: "+flag+" ") {
			t.Errorf("%s: stderr %q does not name %s", args, msg, flag)
		}
	}
}
