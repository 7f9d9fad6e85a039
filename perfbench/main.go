// Command perfbench is the repository benchmark: one in-process driver
// with four workloads (sweep, serve, fleet, query) that call the
// layers' public Go APIs, generate every input from --seed, check the
// outputs and print one JSON result line.
//
//	perfbench --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run times the calls into each layer and
// carries the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output digests are pinned per workload.
const defaultSeed = 1

// hardLimit bounds a whole run, set-up and checks included: past it the
// run is cancelled and fails, so it can never hang the caller.
const hardLimit = 165 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload receives: the seed, the measuring window, the
// traced flag and a private scratch directory removed at exit.
type env struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	traced  bool
	tmp     string

	// listeners records every address the workload listened on, so the
	// exit check can prove none is still accepting connections.
	listeners []string
}

// report is a workload's outcome: operation counts, metric values by
// name, the digest of its deterministic output prefix and any failed
// output checks.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	digest    string
	problems  []string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"sweep": runSweep,
	"serve": runServe,
	"fleet": runFleet,
	"query": runQuery,
}

// pinnedDigests are the output digests of the default seed: the SHA-256
// of each workload's deterministic output prefix. That is the rows of
// the first two sweep chunks; the serve set-up bytes of every hot and
// warm slot plus the 64 miss bodies of the first eight batches; the
// JSON bytes of the first fleet block; and the answers to the first
// query block.
var pinnedDigests = map[string]string{
	"sweep": "b0c01e79aecbb7c04e08e446e44c58c95b122b4aec3d29addad72e4c50e9ba25",
	"serve": "635f5de746c6a355bb2eb26a5a28c1ed6a14ba2c882c7367bb58e6ba03f1d684",
	"fleet": "2bab1daf9654f3cfbf8cc42a819d49987e6baf10019ed3094b48a70ffd9e1c5d",
	"query": "e02b862440ecb0c32614d6eba71d18392ca14a4522fc39f16e85e522a18a109d",
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: sweep, serve, fleet or query")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "parent of the per-run scratch directory")
	traceOut := flag.String("trace-out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload sweep|serve|fleet|query --seed N --seconds S --trace 0|1\n")
		return 2
	}
	if err := checkContract("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardLimit)
	defer cancel()

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*scratch, *name+"-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// The watchdog is the last resort for a run stuck outside any
	// cancellable call: it removes the scratch directory and exits
	// without a result.
	watchdog := time.AfterFunc(hardLimit+10*time.Second, func() {
		os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "perfbench: hard deadline passed, aborting\n")
		os.Exit(3)
	})
	defer watchdog.Stop()

	e := &env{ctx: ctx, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, tmp: tmp}
	if e.traced {
		tracer.enable()
	}
	rep, runErr := fn(e)
	if err := os.RemoveAll(tmp); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = fmt.Errorf("run cancelled: %w", ctx.Err())
	}
	if rep == nil {
		rep = &report{}
	}
	if runErr != nil {
		rep.fail("%v", runErr)
	}
	for _, p := range leftovers(e) {
		rep.fail("left behind: %s", p)
	}
	if rep.digest != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d output digest %s\n", *name, *seed, rep.digest)
		if want := pinnedDigests[*name]; *seed == defaultSeed && want != "" && rep.digest != want {
			rep.fail("output digest %s, pinned %s", rep.digest, want)
		}
	}
	if e.traced {
		if err := tracer.write(filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))); err != nil {
			rep.fail("writing spans: %v", err)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}

	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		res.Correct = false
	}
	for _, m := range reportedMetrics(e.traced) {
		res.Metrics[m.name] = metric{Value: rep.metrics[m.name], Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// leftovers lists what the run created and failed to release: the
// scratch directory, a listener still accepting connections, or a child
// process.
func leftovers(e *env) []string {
	var out []string
	if _, err := os.Stat(e.tmp); !os.IsNotExist(err) {
		out = append(out, "scratch directory "+e.tmp)
	}
	for _, addr := range e.listeners {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			out = append(out, "listener "+addr)
		}
	}
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, f := range tasks {
		if b, err := os.ReadFile(f); err == nil && strings.TrimSpace(string(b)) != "" {
			out = append(out, "child processes "+strings.TrimSpace(string(b)))
		}
	}
	sort.Strings(out)
	return out
}

// checkContract fails when BENCHMARK.json, if present in the working
// directory, lists other workloads or metrics than this driver reports.
func checkContract(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	type def struct{ Name, Unit string }
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		return fmt.Errorf("%s lists workloads %v, the driver runs %v", path, names, have)
	}
	for _, set := range []struct {
		key  string
		json []def
		ours []metricDef
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		if len(set.json) != len(set.ours) {
			return fmt.Errorf("%s lists %d %s metrics, the driver reports %d", path, len(set.json), set.key, len(set.ours))
		}
		for i, m := range set.ours {
			if set.json[i].Name != m.name || set.json[i].Unit != m.unit {
				return fmt.Errorf("%s %s[%d] is %s (%s), the driver reports %s (%s)",
					path, set.key, i, set.json[i].Name, set.json[i].Unit, m.name, m.unit)
			}
		}
	}
	return nil
}
