package sim

import (
	"reflect"
	"strings"
	"testing"

	"vccmin/internal/faults"
)

// TestRunTraceMatchesRun replays one recording to several machines and
// requires each result to equal the live-stream Run of the same options,
// including a defaulted length, a disabled warm-up, both from a fresh
// Replayer and from one that carries one system's L2 across modes,
// schemes, benchmarks and an L2 of another shape.
func TestRunTraceMatchesRun(t *testing.T) {
	pairBD, pairIWD := refPair(5), refPair(6)
	smallL2 := Reference(LowVoltage)
	smallL2.L2Size = 256 * 1024
	var runs Replayer
	for _, base := range []Options{
		{Benchmark: "mcf", Mode: LowVoltage, Seed: 3, Instructions: 20_000},
		{Benchmark: "crafty", Mode: HighVoltage, Seed: -2, Instructions: 8_000, Warmup: -1},
		{Benchmark: "vortex", Mode: LowVoltage, Seed: 5, Instructions: 10_000, Machine: &smallL2},
		{Benchmark: "gzip", Mode: LowVoltage, Seed: 11},
	} {
		rec := new(Recording)
		if err := rec.Record(base); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			base,
			withScheme(base, WordDisable, Victim10T, nil),
			withScheme(base, BlockDisable, Victim6T, pairBD),
			withScheme(base, IncrementalWordDisable, NoVictim, pairIWD),
			withScheme(base, BitFix, NoVictim, nil),
		} {
			want, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := new(Replayer).Run(opts, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: fresh Replayer.Run = %+v, Run = %+v", opts.Benchmark, opts.Scheme, got, want)
			}
			if got, err = runs.Run(opts, rec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: Replayer.Run = %+v, Run = %+v", opts.Benchmark, opts.Scheme, got, want)
			}
		}
	}
}

// TestReplayerRecyclesL2: consecutive runs of one L2 shape reuse the
// same cache; a new shape gets a fresh one.
func TestReplayerRecyclesL2(t *testing.T) {
	opts := Options{Benchmark: "gzip", Mode: LowVoltage, Seed: 1, Instructions: 1_000}
	rec := new(Recording)
	if err := rec.Record(opts); err != nil {
		t.Fatal(err)
	}
	var runs Replayer
	l2 := func(o Options) any {
		if _, err := runs.Run(o, rec); err != nil {
			t.Fatal(err)
		}
		return runs.sys.L2
	}
	first := l2(opts)
	if l2(withScheme(opts, WordDisable, NoVictim, nil)) != first {
		t.Error("same-shape L2 was reallocated")
	}
	small := Reference(LowVoltage)
	small.L2Size = 512 * 1024
	other := opts
	other.Machine = &small
	if l2(other) == first {
		t.Error("an L2 of another shape was recycled")
	}

	// A run whose machine fails to assemble (after taking the L2) leaves
	// the Replayer usable: the next run still equals a live Run.
	if _, err := runs.Run(withScheme(opts, BlockDisable, NoVictim, nil), rec); err == nil {
		t.Fatal("block-disable without a fault-map pair assembled")
	}
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := runs.Run(opts, rec); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("run after a failed assemble = %+v, %v; Run = %+v", got, err, want)
	}
}

func withScheme(o Options, s Scheme, v VictimKind, pair *faults.Pair) Options {
	o.Scheme, o.Victim, o.Pair = s, v, pair
	return o
}

// TestRunTraceRejectsMismatch: a recording of another stream is refused
// with an error, never simulated.
func TestRunTraceRejectsMismatch(t *testing.T) {
	opts := Options{Benchmark: "gzip", Mode: LowVoltage, Seed: 9, Instructions: 4_000, Warmup: 1_000}
	rec := new(Recording)
	if err := rec.Record(opts); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		mutate func(*Options)
		want   string
	}{
		"benchmark":    {func(o *Options) { o.Benchmark = "mcf" }, `benchmark "gzip", run wants "mcf"`},
		"seed":         {func(o *Options) { o.Seed = 10 }, "seed 9, run wants 10"},
		"length":       {func(o *Options) { o.Instructions = 4_001 }, "run wants 1000 + 4001"},
		"warm-up":      {func(o *Options) { o.Warmup = 2_000; o.Instructions = 3_000 }, "run wants 2000 + 3000"},
		"no warm-up":   {func(o *Options) { o.Warmup = -1 }, "run wants 0 + 4000"},
		"default warm": {func(o *Options) { o.Warmup = 0 }, "run wants 2000 + 4000"},
	} {
		bad := opts
		c.mutate(&bad)
		if _, err := new(Replayer).Run(bad, rec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Replayer.Run with wrong %s: err = %v, want %q", name, err, c.want)
		}
	}
	if _, err := new(Replayer).Run(opts, &Recording{}); err == nil {
		t.Error("Replayer.Run accepted an empty recording")
	}
}

// TestRecordFailureEmpties: a failed re-record leaves nothing to replay.
func TestRecordFailureEmpties(t *testing.T) {
	opts := Options{Benchmark: "gzip", Mode: LowVoltage, Seed: 1, Instructions: 1_000}
	rec := new(Recording)
	if err := rec.Record(opts); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Benchmark = "nosuch"
	if err := rec.Record(bad); err == nil {
		t.Fatal("recorded an unknown benchmark")
	}
	if _, err := new(Replayer).Run(opts, rec); err == nil {
		t.Error("replayed the stream left over from before a failed Record")
	}
	if err := new(Recording).Record(Options{}); err == nil {
		t.Error("recorded an unnamed benchmark")
	}
}

// TestReRecordAllocatesNothing: re-recording into a reused Recording —
// new seed, same length and benchmark, as a sweep cell's next run of a
// benchmark does — touches no heap.
func TestReRecordAllocatesNothing(t *testing.T) {
	opts := Options{Benchmark: "crafty", Mode: LowVoltage, Instructions: 10_000}
	var rec Recording
	allocs := testing.AllocsPerRun(5, func() {
		opts.Seed++
		if err := rec.Record(opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-recording allocated %.1f times per run, want 0", allocs)
	}
}
