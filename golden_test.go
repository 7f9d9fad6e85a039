package vccmin_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vccmin"
	"vccmin/internal/benchreg"
	"vccmin/internal/cache"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/pipeline"
	"vccmin/internal/sim"
	"vccmin/internal/tasks"
	"vccmin/internal/workload"
)

// The golden-regression corpus pins byte-stable outputs under
// testdata/golden/. Any refactor that changes a byte of a sweep row, its
// field order, a float rendering or a Table I count shows up as a diff
// here. After an intentional contract change, regenerate with
//
//	go test . -run Golden -update
//
// and review the diff like any other code change.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes).\nIf the change is intentional, regenerate with: go test . -run Golden -update\ngot:\n%s\nwant:\n%s",
			name, len(got), len(want), clip(got), clip(want))
	}
}

func clip(b []byte) []byte {
	const max = 2000
	if len(b) > max {
		return append(append([]byte{}, b[:max]...), "…"...)
	}
	return b
}

// goldenSweepSpec is the corpus sweep: tiny (4 cells, one benchmark, a
// 2k-instruction budget) but crossing a fault-dependent and a
// fault-independent scheme so the rows exercise both evaluation paths.
// Do not change it — changing the spec changes every row's seed stream.
func goldenSweepSpec() vccmin.SweepSpec {
	return vccmin.SweepSpec{
		Pfails:       []float64{0.001, 0.005},
		Schemes:      []vccmin.Scheme{vccmin.Baseline, vccmin.BlockDisable},
		Benchmarks:   []string{"crafty"},
		Trials:       2,
		Instructions: 2000,
		BaseSeed:     7,
	}
}

// TestGoldenSweepRows pins the exact JSONL stream of the corpus sweep:
// cell keys, seed derivation, simulation results and float rendering.
func TestGoldenSweepRows(t *testing.T) {
	var buf bytes.Buffer
	res, err := vccmin.RunSweep(goldenSweepSpec(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 {
		t.Fatalf("corpus sweep computed %d cells, want 4", res.Computed)
	}
	checkGolden(t, "sweep_tiny.jsonl", buf.Bytes())
}

// TestGoldenSweepSummary pins the per-axis aggregation of the same rows.
func TestGoldenSweepSummary(t *testing.T) {
	var buf bytes.Buffer
	if _, err := vccmin.RunSweep(goldenSweepSpec(), &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := vccmin.ReadSweepRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(vccmin.SummarizeSweep(rows), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_tiny_summary.json", append(got, '\n'))
}

// goldenOverheadRow spells out a Table I row for the corpus (the internal
// Row marshals its Scheme as an opaque int).
type goldenOverheadRow struct {
	Scheme             string `json:"scheme"`
	TagTransistors     int    `json:"tag_transistors"`
	DisableTransistors int    `json:"disable_transistors"`
	VictimTransistors  int    `json:"victim_transistors"`
	AlignmentNetwork   bool   `json:"alignment_network"`
	Total              int    `json:"total"`
}

// TestGoldenTableI pins the paper's Table I transistor accounting.
func TestGoldenTableI(t *testing.T) {
	rows := vccmin.TableI()
	out := make([]goldenOverheadRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, goldenOverheadRow{
			Scheme:             r.Scheme.String(),
			TagTransistors:     r.TagTransistors,
			DisableTransistors: r.DisableTransistors,
			VictimTransistors:  r.VictimTransistors,
			AlignmentNetwork:   r.AlignmentNetwork,
			Total:              r.Total,
		})
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.json", append(got, '\n'))
}

// goldenBenchSnapshot is a canonical BENCH_<n>.json payload exercising
// every schema field: procs, benchmem columns, custom metrics and
// sub-benchmark names. Do not edit casually — the fixture pins the
// on-disk schema the CI regression gate consumes.
func goldenBenchSnapshot() *benchreg.Snapshot {
	return &benchreg.Snapshot{
		SchemaVersion: benchreg.SchemaVersion,
		CreatedAt:     "2026-07-27T00:00:00Z",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		Command:       "go test -run ^$ -bench . -benchtime 100ms -count 1 -benchmem .",
		Benchmarks: []benchreg.Benchmark{
			{
				Name:       "BenchmarkFaultMapGeneration",
				Procs:      8,
				Iterations: 32941,
				NsPerOp:    10568,
			},
			{
				Name:        "BenchmarkGenerateMapSparseReuse/L1-32K/pfail=0.001",
				Procs:       8,
				Iterations:  106099,
				NsPerOp:     4530,
				BytesPerOp:  0,
				AllocsPerOp: 0,
			},
			{
				Name:       "BenchmarkFig8LowVoltage",
				Procs:      8,
				Iterations: 7,
				NsPerOp:    163000000,
				Metrics: map[string]float64{
					"blockDis-norm": 0.978,
					"wordDis-norm":  0.806,
				},
			},
			{
				// An alloc-bearing entry: allocs/op is a gated axis (the
				// bench gate fails on cur > base*(1+threshold)+0.5), so the
				// schema fixture must pin its serialized form.
				Name:        "BenchmarkMeasuredCapacityDenseSerial",
				Procs:       8,
				Iterations:  6186,
				NsPerOp:     347802,
				BytesPerOp:  53416,
				AllocsPerOp: 12,
				Metrics:     map[string]float64{"capacity": 0.5864},
			},
		},
	}
}

// TestGoldenBenchSchema pins the BENCH JSON schema byte for byte and
// proves it round-trips: the golden fixture decodes into the canonical
// snapshot, and re-encoding reproduces the file exactly.
func TestGoldenBenchSchema(t *testing.T) {
	snap := goldenBenchSnapshot()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bench_schema.json", buf.Bytes())

	raw, err := os.ReadFile(goldenPath("bench_schema.json"))
	if err != nil {
		t.Skipf("golden file missing (run -update first): %v", err)
	}
	back, err := benchreg.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden bench schema does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatal("decoded golden snapshot differs from the canonical value")
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("bench schema round trip is not byte-identical")
	}
}

// goldenDVFSSpec is the corpus explorer grid: three multi-phase
// workloads × two schemes × all five policies at a small instruction
// scale. Do not change it — the fixture pins every operating point's
// bytes, and the dominance assertions below are part of the contract.
func goldenDVFSSpec() vccmin.DVFSExploreSpec {
	return vccmin.DVFSExploreSpec{
		Workloads: []string{"compute-memory-swing", "bursty-server", "cache-pressure-ramp"},
		Schemes:   []vccmin.Scheme{vccmin.BlockDisable, vccmin.WordDisable},
		Pfail:     0.001,
		Seed:      7,
		Scale:     6000,
	}
}

// TestGoldenDVFSFrontier pins the Pareto explorer's JSON (the same
// points/frontier shape cmd/vccmin-dvfs and /v1/dvfs emit) and enforces
// the scheduling contract: for every workload × scheme, the oracle
// policy is at least as fast as static-low and at most as hungry as
// static-high.
func TestGoldenDVFSFrontier(t *testing.T) {
	res, err := vccmin.ExploreDVFS(goldenDVFSSpec())
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ workload, scheme string }
	perf := map[cell]map[string]float64{}
	epi := map[cell]map[string]float64{}
	for _, p := range res.Points {
		c := cell{p.Workload, p.Scheme}
		if perf[c] == nil {
			perf[c], epi[c] = map[string]float64{}, map[string]float64{}
		}
		perf[c][p.Policy] = p.Performance
		epi[c][p.Policy] = p.EnergyPerInstruction
	}
	if len(perf) != 6 {
		t.Fatalf("explored %d workload×scheme cells, want 6", len(perf))
	}
	for c := range perf {
		if perf[c]["oracle"] < perf[c]["static-low"] {
			t.Errorf("%v: oracle performance %v below static-low %v", c, perf[c]["oracle"], perf[c]["static-low"])
		}
		if epi[c]["oracle"] > epi[c]["static-high"] {
			t.Errorf("%v: oracle energy/instr %v above static-high %v", c, epi[c]["oracle"], epi[c]["static-high"])
		}
	}

	got, err := json.MarshalIndent(struct {
		Points   []vccmin.DVFSPoint `json:"points"`
		Frontier []vccmin.DVFSPoint `json:"frontier"`
	}{res.Points, vccmin.DVFSFrontier(res.Points)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dvfs_frontier.json", append(got, '\n'))
}

// TestGoldenFleetYield pins the fleet-sweep contract for a 10k-die
// fleet across two schemes: the exact bytes /v1/fleet and vccmin-fleet
// emit (grid, Vcc-min histograms, yield-versus-voltage curves,
// quantiles, per-wafer summaries and the canonical hash), proven
// byte-identical at workers=1 and workers=4 before comparing against
// the committed fixture.
func TestGoldenFleetYield(t *testing.T) {
	task, err := tasks.NewFleetTask(tasks.FleetRequest{
		Dies:    10_000,
		Schemes: []string{"block", "word"},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	task.Spec.Workers = 4
	parallel, err := task.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}

	task.Spec.Workers = 1
	serial, err := task.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	serialBytes, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialBytes) {
		t.Fatal("fleet response differs between workers=4 and workers=1")
	}
	checkGolden(t, "fleet_yield.json", append(got, '\n'))
}

// goldenSweepRows runs the corpus sweep with a given worker bound and
// returns its rows.
func goldenSweepRows(t *testing.T, workers int) []vccmin.SweepRow {
	t.Helper()
	var buf bytes.Buffer
	if _, err := vccmin.RunSweepWith(goldenSweepSpec(), vccmin.SweepRunOptions{Out: &buf, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	rows, err := vccmin.ReadSweepRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGoldenColstoreShard pins the colv1 columnar encoding of the corpus
// sweep byte for byte: dictionary assignment, zigzag-delta varints,
// footer layout. The shard must come out identical whether the rows were
// produced serially or by a saturated pool, and decoding the committed
// fixture must reproduce the rows exactly.
func TestGoldenColstoreShard(t *testing.T) {
	serialRows := goldenSweepRows(t, 1)
	enc, err := vccmin.EncodeSweepShard(serialRows)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := vccmin.EncodeSweepShard(goldenSweepRows(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, parallel) {
		t.Fatal("colstore shard differs between workers=1 and workers=8")
	}
	checkGolden(t, "sweep_tiny.col", enc)

	raw, err := os.ReadFile(goldenPath("sweep_tiny.col"))
	if err != nil {
		t.Skipf("golden file missing (run -update first): %v", err)
	}
	back, err := vccmin.DecodeSweepShard(raw)
	if err != nil {
		t.Fatalf("golden shard does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, serialRows) {
		t.Fatal("rows decoded from the golden shard differ from the corpus sweep")
	}
	again, err := vccmin.EncodeSweepShard(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("colstore shard round trip is not byte-identical")
	}
}

// TestGoldenQueryAgg pins the query layer's aggregate JSON over the
// corpus sweep for three group-by shapes (overall, per scheme, per
// pfail×scheme with a range filter), each across the full aggregate set
// — count, mean, min, max, p50, p90, p99 — and requires the answers to
// be identical over serially- and parallel-produced rows.
func TestGoldenQueryAgg(t *testing.T) {
	specs := []struct {
		Name string           `json:"name"`
		Spec vccmin.QuerySpec `json:"spec"`
	}{
		{"overall", vccmin.QuerySpec{
			Metrics: []string{"expected_capacity", "mean_ipc", "ipc_degradation", "energy_per_instruction"},
		}},
		{"by_scheme", vccmin.QuerySpec{
			GroupBy: []string{"scheme"},
			Metrics: []string{"expected_capacity", "ipc_degradation", "energy_per_instruction"},
		}},
		{"by_pfail_scheme_ranged", vccmin.QuerySpec{
			GroupBy:  []string{"pfail", "scheme"},
			Metrics:  []string{"mean_ipc", "measured_capacity", "voltage", "frequency"},
			PfailMax: func() *float64 { v := 0.001; return &v }(),
		}},
	}

	rows := goldenSweepRows(t, 1)
	parallelRows := goldenSweepRows(t, 8)
	type entry struct {
		Name   string              `json:"name"`
		Result *vccmin.QueryResult `json:"result"`
	}
	out := make([]entry, 0, len(specs))
	for _, s := range specs {
		res, err := vccmin.QuerySweepRows(rows, s.Spec)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := vccmin.QuerySweepRows(parallelRows, s.Spec)
		if err != nil {
			t.Fatal(err)
		}
		pgot, err := json.Marshal(pres)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pgot) {
			t.Fatalf("%s: query answer differs between workers=1 and workers=8 rows", s.Name)
		}
		out = append(out, entry{s.Name, res})
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query_agg.json", append(got, '\n'))
}

// TestGoldenResumeStitch proves the golden stream is reachable through the
// resume path too: truncate the corpus output mid-stream (torn final
// line), resume, and require byte-identity with the golden file.
func TestGoldenResumeStitch(t *testing.T) {
	var full bytes.Buffer
	if _, err := vccmin.RunSweep(goldenSweepSpec(), &full); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("corpus too small to tear: %d lines", len(lines))
	}
	// Keep two complete rows plus a torn fragment of the third.
	torn := append([]byte{}, lines[0]...)
	torn = append(torn, lines[1]...)
	torn = append(torn, lines[2][:len(lines[2])/2]...)

	var rest bytes.Buffer
	res, err := vccmin.ResumeSweep(goldenSweepSpec(), bytes.NewReader(torn), &rest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 2 || res.Computed != 2 {
		t.Fatalf("resume skipped %d computed %d, want 2 and 2", res.Skipped, res.Computed)
	}
	if res.ResumeTornBytes != int64(len(lines[2])/2) {
		t.Fatalf("ResumeTornBytes = %d, want %d", res.ResumeTornBytes, len(lines[2])/2)
	}
	if res.ResumeValidBytes != int64(len(lines[0])+len(lines[1])) {
		t.Fatalf("ResumeValidBytes = %d, want %d", res.ResumeValidBytes, len(lines[0])+len(lines[1]))
	}
	stitched := append(torn[:res.ResumeValidBytes], rest.Bytes()...)
	want, err := os.ReadFile(goldenPath("sweep_tiny.jsonl"))
	if err != nil {
		t.Skipf("golden file missing (run -update first): %v", err)
	}
	if !bytes.Equal(stitched, want) {
		t.Fatal("resume-stitched stream differs from the golden corpus")
	}
}

// goldenCoreRun is one line of the core-statistics corpus: the whole
// pipeline.Stats and the three cache levels' counters of one run.
type goldenCoreRun struct {
	Benchmark string         `json:"benchmark"`
	L1        string         `json:"l1"`
	Config    string         `json:"config"`
	Core      pipeline.Stats `json:"core"`
	ICache    cache.Stats    `json:"icache"`
	DCache    cache.Stats    `json:"dcache"`
	L2        cache.Stats    `json:"l2"`
}

// TestGoldenCoreStats pins the out-of-order core and the cache hierarchy
// counter by counter, for every benchmark profile at low voltage on the
// paper's 32 KB 8-way L1 and on a 16 KB 4-way L1: the baseline,
// block-disabling at pfail 1e-3, word-disabling, and block-disabling
// with a victim cache, the next-line prefetcher and a block-disabled L2.
// A change to the per-access cache path or the issue logic that moves
// any event count shows up here, where a sweep row's averaged IPC could
// hide it.
func TestGoldenCoreStats(t *testing.T) {
	const instructions = 20000
	l2g := geom.MustNew(2*1024*1024, 8, 64)
	l2map := faults.GenerateMapSparse(l2g, 32, 1e-3, faults.DeriveSeed(20, "core-stats", "l2"))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l1 := range []struct{ size, ways int }{{32 * 1024, 8}, {16 * 1024, 4}} {
		machine := sim.Reference(sim.LowVoltage)
		machine.L1Size, machine.L1Ways = l1.size, l1.ways
		l1g := geom.MustNew(l1.size, l1.ways, machine.L1BlockBytes)
		label := fmt.Sprintf("%dx%d", l1.size, l1.ways)
		for _, prof := range workload.Profiles() {
			pair := faults.GeneratePairSparse(l1g, l1g, 32, 1e-3, faults.DeriveSeed(20, "core-stats", label, prof.Name))
			base := sim.Options{Benchmark: prof.Name, Mode: sim.LowVoltage, Instructions: instructions, Seed: 1, Machine: &machine}
			configs := []struct {
				name string
				opts sim.Options
			}{
				{"baseline", base},
				{"block-disable", withOpts(base, func(o *sim.Options) { o.Scheme, o.Pair = sim.BlockDisable, &pair })},
				{"word-disable", withOpts(base, func(o *sim.Options) { o.Scheme = sim.WordDisable })},
				{"block-disable+vc+pf+l2", withOpts(base, func(o *sim.Options) {
					o.Scheme, o.Pair, o.Victim = sim.BlockDisable, &pair, sim.Victim10T
					o.PrefetchNextLine, o.L2Map = true, l2map
				})},
			}
			for _, c := range configs {
				r, err := sim.Run(c.opts)
				if err != nil {
					t.Fatalf("%s %s %s: %v", prof.Name, label, c.name, err)
				}
				if err := enc.Encode(goldenCoreRun{prof.Name, label, c.name, r.Stats, r.ICache, r.DCache, r.L2}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkGolden(t, "core_stats.jsonl", buf.Bytes())
}

// withOpts returns a copy of o with set applied.
func withOpts(o sim.Options, set func(*sim.Options)) sim.Options {
	set(&o)
	return o
}

// TestGoldenSimFigures pins Figs. 8-12 at a small scale: four
// benchmarks (two compute-bound, two memory-bound), four fault-map
// pairs and 20k instructions. The figure drivers replay one recorded
// stream per benchmark to every configuration; the tables must not
// depend on how many workers share it, so Parallelism 1 and 4 are
// proven byte-identical before the comparison with the fixture.
func TestGoldenSimFigures(t *testing.T) {
	render := func(parallelism int) []byte {
		p := vccmin.SimParams{
			Benchmarks:   []string{"crafty", "gzip", "swim", "mcf"},
			FaultPairs:   4,
			Instructions: 20_000,
			BaseSeed:     1,
			Parallelism:  parallelism,
		}
		low, err := vccmin.RunLowVoltage(p)
		if err != nil {
			t.Fatal(err)
		}
		high, err := vccmin.RunHighVoltage(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent([]vccmin.Figure{
			low.Fig8(), low.Fig9(), low.Fig10(), high.Fig11(), high.Fig12(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(got, '\n')
	}
	serial := render(1)
	if parallel := render(4); !bytes.Equal(parallel, serial) {
		t.Fatalf("figures differ between Parallelism 1 and 4:\n1: %s\n4: %s", clip(serial), clip(parallel))
	}
	checkGolden(t, "sim_figures.json", serial)
}
