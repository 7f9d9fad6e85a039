package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vccmin/internal/geom"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
)

// testSpec is a small but multi-axis grid that runs in well under a second
// per cell: 2 pfails × 2 schemes × 2 granularities = 8 cells.
func testSpec() Spec {
	return Spec{
		Pfails:        []float64{1e-4, 1e-3},
		Geometries:    []geom.Geometry{geom.MustNew(8*1024, 4, 64)},
		Schemes:       []sim.Scheme{sim.BlockDisable, sim.WordDisable},
		Granularities: []prob.Granularity{prob.GranularityBlock, prob.GranularityWay},
		Benchmarks:    []string{"gzip"},
		Trials:        2,
		Instructions:  4_000,
		BaseSeed:      7,
	}
}

// rowsByKey maps a JSONL stream to per-cell raw lines.
func rowsByKey(t *testing.T, out []byte) map[string]string {
	t.Helper()
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		var row Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if _, dup := m[row.Key]; dup {
			t.Fatalf("duplicate key %s", row.Key)
		}
		m[row.Key] = line
	}
	return m
}

func TestShardDeterminism(t *testing.T) {
	// The full unsharded sweep and the union of all four shards must
	// produce byte-identical rows for every cell.
	var full bytes.Buffer
	fres, err := Run(testSpec(), RunOptions{Out: &full})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Computed != 8 || fres.TotalCells != 8 {
		t.Fatalf("computed %d of %d cells, want 8 of 8", fres.Computed, fres.TotalCells)
	}
	fullRows := rowsByKey(t, full.Bytes())

	shardRows := map[string]string{}
	shardTotal := 0
	for shard := 0; shard < 4; shard++ {
		spec := testSpec()
		spec.ShardIndex, spec.ShardCount = shard, 4
		var buf bytes.Buffer
		res, err := Run(spec, RunOptions{Out: &buf})
		if err != nil {
			t.Fatal(err)
		}
		shardTotal += res.Computed
		for k, line := range rowsByKey(t, buf.Bytes()) {
			if _, dup := shardRows[k]; dup {
				t.Fatalf("cell %s computed by two shards", k)
			}
			shardRows[k] = line
		}
	}
	if shardTotal != len(fullRows) {
		t.Fatalf("shards computed %d cells, full sweep %d", shardTotal, len(fullRows))
	}
	for k, want := range fullRows {
		got, ok := shardRows[k]
		if !ok {
			t.Fatalf("cell %s missing from sharded run", k)
		}
		if got != want {
			t.Errorf("cell %s differs between shard layouts:\n sharded: %s\n    full: %s", k, got, want)
		}
	}
}

func TestResumeSkipsCompletedCells(t *testing.T) {
	spec := testSpec()
	var first bytes.Buffer
	if _, err := Run(spec, RunOptions{Out: &first}); err != nil {
		t.Fatal(err)
	}

	// Truncate the output after 3 rows — plus half of row 4, as a run
	// killed mid-write leaves — to fake an interrupted run.
	lines := strings.SplitAfter(first.String(), "\n")
	partial := strings.Join(lines[:3], "")
	torn := partial + lines[3][:len(lines[3])/2]

	var rest bytes.Buffer
	res, err := Resume(spec, strings.NewReader(torn), RunOptions{Out: &rest})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 3 || res.Computed != 5 {
		t.Fatalf("resume computed %d, skipped %d; want 5 and 3", res.Computed, res.Skipped)
	}
	if res.ResumeValidBytes != int64(len(partial)) {
		t.Fatalf("valid prefix %d bytes, want %d (torn line excluded)", res.ResumeValidBytes, len(partial))
	}
	if res.ResumeTornBytes != int64(len(torn)-len(partial)) {
		t.Fatalf("torn tail %d bytes, want %d", res.ResumeTornBytes, len(torn)-len(partial))
	}
	// Completed cells must not be recomputed, and the union must equal
	// the uninterrupted run byte-for-byte.
	combined := rowsByKey(t, []byte(partial+rest.String()))
	for k, want := range rowsByKey(t, first.Bytes()) {
		if combined[k] != want {
			t.Errorf("cell %s differs after resume", k)
		}
	}

	// Resuming from the complete output recomputes nothing.
	res, err = Resume(spec, strings.NewReader(first.String()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 0 || res.Skipped != 8 {
		t.Fatalf("full resume computed %d, skipped %d; want 0 and 8", res.Computed, res.Skipped)
	}
}

func TestLoadCompletedRejectsCorruptCompleteLine(t *testing.T) {
	if _, err := Resume(testSpec(), strings.NewReader("not json\n"), RunOptions{}); err == nil {
		t.Error("accepted a corrupt newline-terminated line")
	}
}

// TestLoadCompletedRejectsForeignStream: a checkpoint written by a
// different (or pre-versioning) RNG stream must refuse to resume rather
// than silently stitch two distributions into one output file. The rows
// name a real cell of the grid at its own index, so the refusal is the
// stream check's, not the grid check's.
func TestLoadCompletedRejectsForeignStream(t *testing.T) {
	spec := testSpec()
	cell := spec.withDefaults().Cells()[0]
	key, _ := json.Marshal(cell.Key())
	row := func(stream string) string {
		return fmt.Sprintf(`{"key":%s,"index":%d%s}`, key, cell.Index, stream) + "\n"
	}
	for _, line := range []string{
		row(""),                     // pre-versioning row: no stream field
		row(`,"stream":"dense-v0"`), // explicit foreign stream
	} {
		_, err := Resume(spec, strings.NewReader(line), RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "checkpoint stream") {
			t.Errorf("resumed a checkpoint row from a foreign stream (err %v): %s", err, line)
		}
	}
	res, err := Resume(spec, strings.NewReader(row(`,"stream":"`+StreamVersion+`"`)), RunOptions{})
	if err != nil || res.Skipped != 1 {
		t.Fatalf("current-stream row rejected: %v (%+v)", err, res)
	}
}

func TestTrialsReportEffectiveSampleSize(t *testing.T) {
	spec := testSpec()
	spec.Schemes = []sim.Scheme{sim.Baseline, sim.WordDisable}
	spec.Pfails = []float64{1e-3}
	spec.Granularities = []prob.Granularity{prob.GranularityBlock}
	spec.Trials = 4
	res, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		switch r.Scheme {
		case "baseline":
			// Fault-independent and no fitness statistic: one trial.
			if r.Trials != 1 {
				t.Errorf("baseline cell reports %d trials, want 1", r.Trials)
			}
		case "word-disable":
			// IPC needs one run, but UnfitTrials samples all 4 pairs.
			if r.Trials != 4 {
				t.Errorf("word-disable cell reports %d trials, want 4", r.Trials)
			}
		}
	}
}

func TestCellEnumerationAndKeys(t *testing.T) {
	spec := testSpec().withDefaults()
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if keys[c.Key()] {
			t.Errorf("duplicate key %s", c.Key())
		}
		keys[c.Key()] = true
	}
	want := "pfail=0.0001;geom=8192x4x64;scheme=block-disable;victim=no-victim;gran=block"
	if got := cells[0].Key(); got != want {
		t.Errorf("canonical key changed:\n got %s\nwant %s", got, want)
	}
}

func TestShardValidation(t *testing.T) {
	spec := testSpec()
	spec.ShardIndex, spec.ShardCount = 4, 4
	if _, err := Run(spec, RunOptions{}); err == nil {
		t.Error("accepted out-of-range shard index")
	}
	spec = testSpec()
	spec.Pfails = []float64{2}
	if _, err := Run(spec, RunOptions{}); err == nil {
		t.Error("accepted pfail >= 1")
	}
}

func TestSummarizeGroupsEveryAxis(t *testing.T) {
	spec := testSpec()
	res, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byAxis := map[string]int{}
	for _, s := range res.Summary {
		byAxis[s.Axis] += s.Cells
		if s.Cells == 0 {
			t.Errorf("empty summary group %s=%s", s.Axis, s.Value)
		}
	}
	for _, axis := range []string{"pfail", "geometry", "scheme", "victim", "granularity"} {
		if byAxis[axis] != 8 {
			t.Errorf("axis %s covers %d cells, want 8", axis, byAxis[axis])
		}
	}
	// Block-disable rows must report degradation against a baseline.
	for _, r := range res.Rows {
		if r.BaselineIPC <= 0 {
			t.Errorf("cell %s has no baseline IPC", r.Key)
		}
		if r.Scheme == "block-disable" && r.MeasuredCapacity <= 0 {
			t.Errorf("cell %s has no measured capacity", r.Key)
		}
	}
}
