package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vccmin/internal/colstore"
	"vccmin/internal/sweep"
)

// tinyQuery asks the tiny corpus sweep a scheme-grouped question.
func tinyQuery() QueryRequest {
	return QueryRequest{
		Sweep:   tinySpec(),
		GroupBy: []string{"scheme"},
		Metrics: []string{"expected_capacity", "mean_ipc"},
	}
}

// postRaw POSTs JSON and returns the raw response body — the tests
// below compare serving paths byte for byte, so no re-decoding.
func postRaw(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestQueryComputePath: with no finished job to fold, POST /v1/query
// computes the sweep inline, answers with groups, and serves the repeat
// from the engine cache.
func TestQueryComputePath(t *testing.T) {
	_, ts := newTestServer(t)

	var qr QueryResponse
	resp := postJSON(t, ts.URL+"/v1/query", tinyQuery(), &qr)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first query: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if qr.Rows != 4 || qr.Matched != 4 {
		t.Fatalf("rows/matched = %d/%d, want 4/4", qr.Rows, qr.Matched)
	}
	if len(qr.Groups) != 2 {
		t.Fatalf("%d groups for 2 schemes: %+v", len(qr.Groups), qr.Groups)
	}
	if qr.Groups[0].Key != "scheme=baseline" || qr.Groups[1].Key != "scheme=block-disable" {
		t.Fatalf("group keys %q, %q", qr.Groups[0].Key, qr.Groups[1].Key)
	}
	if qr.Hash == "" || qr.SweepHash == "" || qr.Stream != sweep.StreamVersion {
		t.Fatalf("identity fields missing: %+v", qr)
	}

	var again QueryResponse
	resp = postJSON(t, ts.URL+"/v1/query", tinyQuery(), &again)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("identical query not cached (X-Cache %q)", resp.Header.Get("X-Cache"))
	}
}

// TestQueryJobAndComputePathsAgree is the one-identity acceptance
// check: the same question answered from a finished job's folded
// shards (server A, interactive tier) and computed inline (server B,
// batch tier) must return byte-identical bodies.
func TestQueryJobAndComputePathsAgree(t *testing.T) {
	sA, tsA := newTestServer(t)
	_, tsB := newTestServer(t)

	// Server A runs the sweep as a job first.
	var acc SweepAccepted
	if resp := postJSON(t, tsA.URL+"/v1/sweeps", tinySpec(), &acc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep POST: status %d", resp.StatusCode)
	}
	if snap := waitDone(t, tsA.URL, acc.Job.ID); snap.Status != JobDone {
		t.Fatalf("job: %+v", snap)
	}

	respA, bodyA := postRaw(t, tsA.URL+"/v1/query", tinyQuery())
	if respA.StatusCode != 200 {
		t.Fatalf("checkpoint-backed query: status %d: %s", respA.StatusCode, bodyA)
	}
	// The interactive path folds the checkpoint on first use.
	shardDir := sA.colstoreDir(acc.Job.ID)
	if _, err := os.Stat(shardDir); err != nil {
		t.Fatalf("query did not fold the finished checkpoint: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(shardDir, "*.colv1"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files under %s (%v)", shardDir, err)
	}

	respB, bodyB := postRaw(t, tsB.URL+"/v1/query", tinyQuery())
	if respB.StatusCode != 200 {
		t.Fatalf("computed query: status %d: %s", respB.StatusCode, bodyB)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("folded and computed answers differ:\nfolded:   %s\ncomputed: %s", bodyA, bodyB)
	}
}

// TestQueryBadRequests pins the 400 surface: malformed body, unknown
// axis/metric, unknown where axis, inverted range, oversized grid —
// all as invalid_request envelopes.
func TestQueryBadRequests(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1, MaxGridCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	lo, hi := 0.01, 0.001
	small := tinySpec()
	small.Pfails = []float64{0.001} // 2 cells, under the limit
	bad := []QueryRequest{
		{Sweep: small, GroupBy: []string{"no_such_axis"}, Metrics: []string{"mean_ipc"}},
		{Sweep: small, Metrics: []string{"no_such_metric"}},
		{Sweep: small, Metrics: []string{"mean_ipc"}, Where: map[string]string{"bogus": "x"}},
		{Sweep: small, Metrics: []string{"mean_ipc"}, PfailMin: &lo, PfailMax: &hi},
		tinyQuery(), // 4 cells > MaxGridCells 3
	}
	for i, req := range bad {
		var env errorEnvelope
		resp := postJSON(t, ts.URL+"/v1/query", req, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != ErrCodeInvalidRequest {
			t.Errorf("request %d: status %d code %q, want 400 invalid_request", i, resp.StatusCode, env.Error.Code)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{"sweep": {"unknown_field": 1}}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestQueryShedWithoutCheckpoint: a query whose sweep has no finished
// checkpoint is batch-shaped work and must be shed past the admission
// watermark — while the same question over a folded checkpoint keeps
// serving on the interactive tier.
func TestQueryShedWithoutCheckpoint(t *testing.T) {
	s, ts := newTrafficServer(t, Config{Workers: 1, ShedWatermark: 1})

	// Fill the lone batch worker and the queue.
	if resp := postJSON(t, ts.URL+"/v1/sweeps", slowSpec(), &SweepAccepted{}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow sweep POST: status %d", resp.StatusCode)
	}
	// The backlog counts only queued jobs: wait until the worker has
	// taken the slow sweep, or the second POST itself would meet the
	// watermark.
	deadline := time.Now().Add(5 * time.Second)
	for s.jobs.BatchBacklog() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := tinySpec()
	second.BaseSeed = 2001
	if resp := postJSON(t, ts.URL+"/v1/sweeps", second, &SweepAccepted{}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second sweep POST: status %d", resp.StatusCode)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.jobs.BatchBacklog() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	q := tinyQuery()
	q.Sweep.BaseSeed = 2002 // no job for this grid → compute path
	var env errorEnvelope
	resp := postJSON(t, ts.URL+"/v1/query", q, &env)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != ErrCodeOverloaded {
		t.Fatalf("uncheckpointed query under load: status %d code %q, want 503 overloaded", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
}

// TestQueryRowsOrderCrossCheck pins the ordering contract between the
// two row-serving surfaces: GET /v1/sweeps/{id}/rows pages the JSONL
// checkpoint in file order, and the colstore fold must preserve exactly
// that order — including for a resumed job whose checkpoint is NOT in
// cell-index order. Checkpoint order is the source of truth.
func TestQueryRowsOrderCrossCheck(t *testing.T) {
	dir := t.TempDir()

	req := tinySpec()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithDefaults()
	id := spec.CanonicalHash()

	res, err := sweep.Run(spec, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A resume-shaped checkpoint: rotate the rows out of cell order.
	rows := append(append([]sweep.Row{}, res.Rows[2:]...), res.Rows[:2]...)
	var buf bytes.Buffer
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, id+".rows.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(filepath.Join(dir, id+".spec.json"), spec); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	if err := writeJSONFile(filepath.Join(dir, id+".done.json"), JobSnapshot{
		ID: id, Status: JobDone, TotalCells: 4, ShardCells: 4, Computed: 4, CreatedAt: now,
	}); err != nil {
		t.Fatal(err)
	}

	// A recovered server serves the checkpoint as a done job.
	s, err := New(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Surface 1: the paged rows endpoint, read one row per page.
	var paged []sweep.Row
	for off := 0; off < len(rows); off++ {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/rows?offset=" + itoa(off) + "&limit=1")
		if err != nil {
			t.Fatal(err)
		}
		page, err := sweep.ReadRows(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != 1 {
			t.Fatalf("page at offset %d holds %d rows", off, len(page))
		}
		paged = append(paged, page[0])
	}

	// Surface 2: a query folds the checkpoint; read the shards back.
	if resp, body := postRaw(t, ts.URL+"/v1/query", QueryRequest{Sweep: req, Metrics: []string{"mean_ipc"}}); resp.StatusCode != 200 {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	d, err := colstore.OpenDir(s.colstoreDir(id))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := colstore.Rows(d)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rows {
		if paged[i].Key != rows[i].Key {
			t.Fatalf("rows endpoint reordered the checkpoint at %d: %q vs %q", i, paged[i].Key, rows[i].Key)
		}
		if folded[i].Key != rows[i].Key {
			t.Fatalf("colstore fold reordered the checkpoint at %d: %q vs %q", i, folded[i].Key, rows[i].Key)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
