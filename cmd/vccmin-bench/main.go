// vccmin-bench runs the repository's benchmark suite, records the result
// as a machine-readable BENCH_<n>.json snapshot, and gates against a
// recorded baseline with a relative ns/op threshold.
//
// Defaults match the CI smoke gate: the stable substrate benchmarks (the
// fault-map generators, cache access, workload generation, the pipeline
// step, the Eq. 1 urn model, the dvfs schedulers, the engine result
// store's cold/warm/disk paths and the colv1 shard codec and query
// evaluator) at -benchtime 100ms, compared against the highest-numbered
// BENCH_<n>.json in -dir at a 25% threshold.
//
//	vccmin-bench                         # run smoke set, compare to latest baseline
//	vccmin-bench -write                  # ...and record BENCH_<latest+1>.json
//	vccmin-bench -out BENCH_ci.json      # ...recording to an explicit file instead
//	vccmin-bench -bench . -pkg ./...     # the full suite
//	vccmin-bench -input bench.txt        # parse an existing `go test -bench` log
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"vccmin/internal/benchreg"
	"vccmin/internal/clirun"
)

// smokeBench selects the CI gate's benchmark set: single-threaded,
// CPU-bound substrate benches stable enough for a cross-run ns/op
// comparison. Excluded on purpose: the Monte Carlo figure benches
// (per-iteration sample sizes make single-run ns/op too noisy) and
// BenchmarkMeasuredCapacitySparseParallel (its ns/op scales with core
// count, so gating it against a baseline from a different machine would
// measure the runner, not the code — run it via `-bench . -pkg ./...`
// when recording full snapshots).
const smokeBench = "^(BenchmarkFaultMapGeneration|BenchmarkGenerateDense|BenchmarkGenerateMapSparse|BenchmarkGenerateMapSparseReuse|BenchmarkMeasuredCapacityDenseSerial|BenchmarkCacheAccess|BenchmarkWorkloadGeneration|BenchmarkPipelineThroughput|BenchmarkEq1UrnModel|BenchmarkFig1VoltageScaling|BenchmarkDVFSOracleSchedule|BenchmarkDVFSReactiveSchedule|BenchmarkEngineColdCompute|BenchmarkEngineWarmMemory|BenchmarkEngineDiskHit|BenchmarkFleetDieVccmin|BenchmarkFleetSweepSmall|BenchmarkPredictDie|BenchmarkShardEncode|BenchmarkShardDecode|BenchmarkQueryGroupBy1M|BenchmarkSweepCell)$"

// config carries the parsed flag set; one field per flag.
type config struct {
	pkgs      string  // comma-separated packages to benchmark
	bench     string  // go test -bench regex
	benchtime string  // go test -benchtime
	count     int     // go test -count (repeats averaged per benchmark)
	dir       string  // directory holding BENCH_<n>.json snapshots
	baseline  string  // explicit baseline path ("" = latest in dir)
	threshold float64 // relative ns/op gate
	write     bool    // record the next BENCH_<n>.json in dir
	out       string  // record to this exact path
	input     string  // parse an existing bench log instead of running
	extra     string  // comma-separated extra bench logs merged into the snapshot
	gate      bool    // exit non-zero on regression
}

func main() {
	var cfg config
	flag.StringVar(&cfg.pkgs, "pkg", ".,./internal/faults,./internal/dvfs,./internal/engine,./internal/population,./internal/colstore,./internal/sweep", "comma-separated packages to benchmark")
	flag.StringVar(&cfg.bench, "bench", smokeBench, "benchmark regex passed to go test -bench")
	flag.StringVar(&cfg.benchtime, "benchtime", "100ms", "per-benchmark budget passed to go test -benchtime")
	flag.IntVar(&cfg.count, "count", 1, "go test -count (repeats are averaged per benchmark)")
	flag.StringVar(&cfg.dir, "dir", ".", "directory holding the BENCH_<n>.json snapshots")
	flag.StringVar(&cfg.baseline, "baseline", "", "baseline snapshot (default: highest-numbered BENCH_<n>.json in -dir)")
	flag.Float64Var(&cfg.threshold, "threshold", 0.25, "relative ns/op regression gate (0.25 = fail beyond +25%)")
	flag.BoolVar(&cfg.write, "write", false, "record the run as the next BENCH_<n>.json in -dir")
	flag.StringVar(&cfg.out, "out", "", "record the run to this exact path (independent of -write numbering)")
	flag.StringVar(&cfg.input, "input", "", "parse this `go test -bench` output file instead of running benchmarks")
	flag.StringVar(&cfg.extra, "extra", "", "comma-separated extra bench-format logs merged into the snapshot (e.g. vccmin-loadgen -bench-out)")
	flag.BoolVar(&cfg.gate, "gate", true, "exit non-zero when a benchmark regresses past -threshold")
	version := clirun.VersionFlag()
	flag.Parse()
	if clirun.HandleVersion(version) {
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vccmin-bench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var (
		raw     io.Reader
		command string
	)
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		raw = f
		command = "parsed from " + cfg.input
	} else {
		args := []string{"test", "-run", "^$", "-bench", cfg.bench, "-benchtime", cfg.benchtime,
			"-count", fmt.Sprint(cfg.count), "-benchmem"}
		args = append(args, strings.Split(cfg.pkgs, ",")...)
		command = "go " + strings.Join(args, " ")
		fmt.Fprintln(os.Stderr, command)
		cmd := exec.Command("go", args...)
		var buf strings.Builder
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr) // live progress + capture
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("benchmark run failed: %w", err)
		}
		raw = strings.NewReader(buf.String())
	}

	benches, err := benchreg.ParseBenchOutput(raw)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark results matched (bench regex %q)", cfg.bench)
	}

	// Extra logs (e.g. a vccmin-loadgen -bench-out capture) ride along in
	// the snapshot. Their names never appear in a plain smoke run, so the
	// gate's name intersection leaves them as informational baseline-only
	// entries on later runs — recorded, compared when present, never a
	// spurious failure.
	if cfg.extra != "" {
		for _, path := range strings.Split(cfg.extra, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			more, err := benchreg.ParseBenchOutput(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("parsing -extra %s: %w", path, err)
			}
			if len(more) == 0 {
				return fmt.Errorf("-extra %s held no benchmark result lines", path)
			}
			benches = append(benches, more...)
			command += "; merged " + path
		}
	}
	snap := &benchreg.Snapshot{
		SchemaVersion: benchreg.SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Command:       command,
		Benchmarks:    benches,
	}

	// Resolve the baseline before writing, so -write never compares the
	// run against itself.
	baseline := cfg.baseline
	if baseline == "" {
		if path, _, err := benchreg.LatestFile(cfg.dir); err == nil && path != "" {
			baseline = path
		} else if err != nil {
			return err
		}
	}

	if cfg.out != "" {
		if err := snap.WriteFile(cfg.out); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "recorded", cfg.out)
	}
	if cfg.write {
		path, err := benchreg.NextFile(cfg.dir)
		if err != nil {
			return err
		}
		if err := snap.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "recorded", path)
	}

	if baseline == "" {
		fmt.Fprintln(os.Stderr, "no baseline snapshot found; nothing to gate against")
		return nil
	}
	base, err := benchreg.ReadFile(baseline)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "baseline:", baseline)
	rep := benchreg.Compare(base, snap, cfg.threshold)
	rep.Format(os.Stdout)
	if cfg.gate && rep.Failed() {
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%% vs %s", rep.Regressions, cfg.threshold*100, baseline)
	}
	return nil
}
