package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"

	"vccmin/internal/sweep"
)

// This file is the differential oracle for the query layer, in the
// spirit of the faults/dvfs equivalence suites `make diff-race` runs: a
// second, naive implementation of the exact query semantics — row
// structs, string maps, no columns — held byte-identical to the real
// columnar path over large inputs. Every float in both implementations
// is computed by the same pinned recipe (sort, sum the sorted sample,
// nearest-rank quantiles), so the comparison is exact equality, not
// tolerance.

// oracleAxis renders one axis of one row plus its sort key, mirroring
// the spec prose rather than the axisReader code.
func oracleAxis(r sweep.Row, axis string) (str string, nums []float64, numeric bool) {
	switch axis {
	case "pfail":
		return strconv.FormatFloat(r.Pfail, 'g', -1, 64), []float64{r.Pfail}, true
	case "geometry":
		return fmt.Sprintf("%dx%dx%d", r.GeomSize, r.GeomWays, r.GeomBlock),
			[]float64{float64(r.GeomSize), float64(r.GeomWays), float64(r.GeomBlock)}, true
	case "scheme":
		return r.Scheme, nil, false
	case "victim":
		return r.Victim, nil, false
	case "granularity":
		return r.Granularity, nil, false
	case "policy":
		if r.Policy == "" {
			return "none", nil, false
		}
		return r.Policy, nil, false
	case "stream":
		return r.Stream, nil, false
	}
	panic("unknown axis " + axis)
}

// oracleMetric reads one metric of one row; ok=false when the row does
// not carry it (optional DVFS columns on classic rows).
func oracleMetric(r sweep.Row, m string) (float64, bool) {
	switch m {
	case "expected_capacity":
		return r.ExpectedCapacity, true
	case "whole_cache_fail_prob":
		return r.WholeCacheFailProb, true
	case "mean_ipc":
		return r.MeanIPC, true
	case "baseline_ipc":
		return r.BaselineIPC, true
	case "ipc_degradation":
		return r.IPCDegradation, true
	case "measured_capacity":
		return r.MeasuredCapacity, true
	case "unfit_trials":
		return float64(r.UnfitTrials), true
	case "voltage":
		return r.Voltage, true
	case "frequency":
		return r.Frequency, true
	case "energy_per_instruction":
		return r.EnergyPerInstruction, true
	case "trials":
		return float64(r.Trials), true
	case "benchmarks":
		return float64(r.Benchmarks), true
	case "dvfs_performance":
		return r.DVFSPerformance, true
	case "dvfs_energy_per_instruction":
		return r.DVFSEnergyPerInst, true
	case "dvfs_switches":
		if r.DVFSSwitches != nil {
			return *r.DVFSSwitches, true
		}
		return 0, false
	case "dvfs_low_share":
		if r.DVFSLowShare != nil {
			return *r.DVFSLowShare, true
		}
		return 0, false
	}
	panic("unknown metric " + m)
}

// oracleQuantile is the nearest-rank order statistic, written out
// independently of stats.QuantileSorted.
func oracleQuantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

type oracleGroup struct {
	key     string
	parts   [][]float64 // numeric sort keys, nil entry = lexical axis
	strs    []string
	cells   int
	samples [][]float64
}

// oracleQuery evaluates the spec naively over materialized rows.
func oracleQuery(rows []sweep.Row, q Spec) *Result {
	groups := map[string]*oracleGroup{}
	res := &Result{Rows: len(rows)}
	for _, r := range rows {
		matched := true
		for axis, want := range q.Where {
			if str, _, _ := oracleAxis(r, axis); str != want {
				matched = false
				break
			}
		}
		if q.PfailMin != nil && r.Pfail < *q.PfailMin {
			matched = false
		}
		if q.PfailMax != nil && r.Pfail > *q.PfailMax {
			matched = false
		}
		if !matched {
			continue
		}
		res.Matched++

		key := "all"
		var parts [][]float64
		var strs []string
		if len(q.GroupBy) > 0 {
			key = ""
			for i, axis := range q.GroupBy {
				str, nums, _ := oracleAxis(r, axis)
				if i > 0 {
					key += ";"
				}
				key += axis + "=" + str
				parts = append(parts, nums)
				strs = append(strs, str)
			}
		}
		g, ok := groups[key]
		if !ok {
			g = &oracleGroup{key: key, parts: parts, strs: strs, samples: make([][]float64, len(q.Metrics))}
			groups[key] = g
		}
		g.cells++
		for i, m := range q.Metrics {
			if v, ok := oracleMetric(r, m); ok {
				g.samples[i] = append(g.samples[i], v)
			}
		}
	}

	res.Groups = make([]Group, 0, len(groups))
	ordered := make([]*oracleGroup, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		for k := range a.parts {
			if a.parts[k] != nil && b.parts[k] != nil {
				for x := range a.parts[k] {
					if a.parts[k][x] != b.parts[k][x] {
						return a.parts[k][x] < b.parts[k][x]
					}
				}
				continue
			}
			if a.strs[k] != b.strs[k] {
				return a.strs[k] < b.strs[k]
			}
		}
		return false
	})

	for _, g := range ordered {
		out := Group{Key: g.key, Cells: g.cells, Aggregates: make([]Aggregate, len(q.Metrics))}
		for i, m := range q.Metrics {
			vals := g.samples[i]
			a := Aggregate{Metric: m, Count: len(vals)}
			if len(vals) > 0 {
				sort.Float64s(vals)
				sum := 0.0
				for _, v := range vals {
					sum += v
				}
				a.Mean = sum / float64(len(vals))
				a.Min = vals[0]
				a.Max = vals[len(vals)-1]
				a.P50 = oracleQuantile(vals, 0.50)
				a.P90 = oracleQuantile(vals, 0.90)
				a.P99 = oracleQuantile(vals, 0.99)
			}
			out.Aggregates[i] = a
		}
		res.Groups = append(res.Groups, out)
	}
	return res
}

// oracleRowCount scales the differential population: a full
// million-cell pass in the plain suite, a smaller one under the race
// detector (make diff-race) or -short, where the 5-20x slowdown would
// dominate the suite for no extra coverage of the comparison itself.
func oracleRowCount() int {
	if raceEnabled || testing.Short() {
		return 50_000
	}
	return 1 << 20
}

// oracleRows is the differential population: genRows, plus a pfail
// value held only by the first n/50 rows and a scheme held only by the
// last n/50, so that in any layout of more than one shard some Where
// values appear in only some shards.
func oracleRows(n int) []sweep.Row {
	rows := genRows(n, 1234, true)
	for i := 0; i < n/50; i++ {
		rows[i].Pfail = 7.5e-3
		rows[i].Key = testKey(rows[i])
		rows[n-1-i].Scheme = "bitfix"
		rows[n-1-i].Key = testKey(rows[n-1-i])
	}
	return rows
}

// oracleSpecs is the battery every differential query test asks.
func oracleSpecs() []Spec {
	lo, hi := 2e-4, 2e-3
	at := 1e-3
	absent := 3e-4
	return []Spec{
		{Metrics: Metrics}, // every metric, one "all" group
		{GroupBy: []string{"scheme"}, Metrics: []string{"expected_capacity", "ipc_degradation", "energy_per_instruction"}},
		{GroupBy: []string{"pfail", "scheme"}, Metrics: []string{"mean_ipc", "dvfs_switches"},
			Where: map[string]string{"victim": "none"}},
		{GroupBy: []string{"geometry", "policy"}, Metrics: []string{"dvfs_performance", "dvfs_low_share", "unfit_trials"},
			PfailMin: &lo, PfailMax: &hi},
		{GroupBy: []string{"pfail", "geometry", "scheme", "granularity"}, Metrics: []string{"voltage"},
			Where: map[string]string{"policy": "oracle"}},
		{Metrics: []string{"mean_ipc"}, Where: map[string]string{"scheme": "no-such-scheme"}}, // zero matches
		{GroupBy: []string{"scheme"}, Metrics: []string{"mean_ipc", "trials"}, Where: map[string]string{"pfail": "0.001"}},
		{GroupBy: []string{"pfail"}, Metrics: []string{"measured_capacity"}, Where: map[string]string{"geometry": "16384x4x64"}},
		{GroupBy: []string{"geometry"}, Metrics: []string{"mean_ipc", "dvfs_switches"}, Where: map[string]string{"policy": "none"}},
		{Metrics: []string{"mean_ipc"}, Where: map[string]string{"policy": ""}}, // "" renders as "none": zero matches
		{GroupBy: []string{"victim"}, Metrics: []string{"frequency"}, Where: map[string]string{"stream": sweep.StreamVersion},
			PfailMin: &lo},
		{GroupBy: []string{"scheme", "granularity"}, Metrics: []string{"baseline_ipc"}, Where: map[string]string{"pfail": "0.0075"}},
		{GroupBy: []string{"pfail"}, Metrics: []string{"dvfs_energy_per_instruction"}, Where: map[string]string{"scheme": "bitfix"}},
		{GroupBy: []string{"policy"}, Metrics: []string{"whole_cache_fail_prob"},
			Where: map[string]string{"pfail": "0.001", "victim": "10t"}, PfailMin: &at, PfailMax: &at},
		{Metrics: []string{"benchmarks"}, PfailMin: &absent, PfailMax: &absent}, // a range holding no value
	}
}

// oracleAnswers holds the oracle's JSON answer to each battery spec
// (by index) over oracleRows(oracleRowCount()). The row-wise oracle is
// most of a differential test's time, and TestDifferentialQueryOracle
// and TestDifferentialQueryDir ask it the same questions of the same
// population, so it answers each once per process.
var oracleAnswers sync.Map

// checkOracle asks every spec of the battery of each source and
// requires each answer to byte-equal the oracle's over rows, which
// must be oracleRows(oracleRowCount()).
func checkOracle(t *testing.T, rows []sweep.Row, srcs map[string]Source) {
	t.Helper()
	for i, q := range oracleSpecs() {
		want, ok := oracleAnswers.Load(i)
		if !ok {
			b, err := json.Marshal(oracleQuery(rows, q))
			if err != nil {
				t.Fatal(err)
			}
			want, _ = oracleAnswers.LoadOrStore(i, b)
		}
		wantB := want.([]byte)
		for name, src := range srcs {
			got, err := Query(src, q)
			if err != nil {
				t.Fatalf("%s spec %d: %v", name, i, err)
			}
			gotB, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotB, wantB) {
				t.Errorf("%s spec %d: columnar and oracle answers differ\ncolumnar: %.400s\noracle:   %.400s", name, i, gotB, wantB)
			}
		}
	}
}

// TestDifferentialQueryOracle runs the battery over a large synthetic
// population in default-size in-memory shards and requires answers
// byte-identical to the oracle's.
func TestDifferentialQueryOracle(t *testing.T) {
	rows := oracleRows(oracleRowCount())
	src, err := ShardsOf(rows, DefaultShardRows)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, rows, map[string]Source{"mem": src})
}

// TestDifferentialQueryDir runs the battery over the same population
// folded to shard files with WriteDir and read back through OpenDir —
// the extent-read, reused-buffer path — and requires answers
// byte-identical to the oracle's, as TestDifferentialQueryOracle does
// for in-memory shards. The layout has at least eight shards, so the
// first-shard pfail and the last-shard scheme are Where values absent
// from most shards.
func TestDifferentialQueryDir(t *testing.T) {
	rows := oracleRows(oracleRowCount())
	shardRows := min(DefaultShardRows, len(rows)/8)
	dir := filepath.Join(t.TempDir(), "shards")
	if err := WriteDir(dir, rows, shardRows); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.files) < 8 {
		t.Fatalf("%d shard files, want at least 8", len(d.files))
	}
	checkOracle(t, rows, map[string]Source{"dir": d})
}

// TestDifferentialQueryShuffledLayout re-asks one spec over the same
// population in a shuffled order and a prime shard size; the oracle
// answer over the original rows must still match exactly.
func TestDifferentialQueryShuffledLayout(t *testing.T) {
	rows := genRows(30_000, 77, true)
	q := Spec{GroupBy: []string{"scheme", "victim"}, Metrics: []string{"measured_capacity", "dvfs_energy_per_instruction"}}
	want, err := json.Marshal(oracleQuery(rows, q))
	if err != nil {
		t.Fatal(err)
	}

	shuffled := append([]sweep.Row{}, rows...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1) // deterministic permutation
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	src, err := ShardsOf(shuffled, 4093)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(src, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("shuffled columnar answer differs from the oracle over ordered rows")
	}
}
