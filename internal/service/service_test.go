package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vccmin/internal/sim"
	"vccmin/internal/sweep"
)

// tinySpec is the request used across the e2e tests: 4 cells (2 pfails ×
// 2 schemes), one benchmark, small instruction budget.
func tinySpec() SweepRequest {
	return SweepRequest{
		Pfails:       []float64{0.001, 0.002},
		Schemes:      []string{"baseline", "block"},
		Benchmarks:   []string{"crafty"},
		Trials:       1,
		Instructions: 3000,
		BaseSeed:     7,
		Workers:      2,
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp
}

func postJSON(t *testing.T, url string, body, v any) *http.Response {
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
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("POST %s: decoding: %v", url, err)
	}
	return resp
}

func TestSyncEndpointsAndCache(t *testing.T) {
	_, ts := newTestServer(t)

	var health map[string]string
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	var cap1 CapacityResponse
	resp := getJSON(t, ts.URL+"/v1/capacity?pfail=0.001&trials=20", &cap1)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("capacity: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if cap1.ExpectedCapacity <= 0 || cap1.ExpectedCapacity >= 1 {
		t.Fatalf("expected_capacity = %v, want in (0,1)", cap1.ExpectedCapacity)
	}
	if cap1.MeasuredCapacity == nil {
		t.Fatal("trials=20 should add measured_capacity")
	}
	if diff := *cap1.MeasuredCapacity - cap1.ExpectedCapacity; diff > 0.05 || diff < -0.05 {
		t.Fatalf("measured %v far from analytic %v", *cap1.MeasuredCapacity, cap1.ExpectedCapacity)
	}

	var cap2 CapacityResponse
	resp = getJSON(t, ts.URL+"/v1/capacity?pfail=0.001&trials=20", &cap2)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second identical GET not served from cache (X-Cache %q)", resp.Header.Get("X-Cache"))
	}
	if cap2.ExpectedCapacity != cap1.ExpectedCapacity || *cap2.MeasuredCapacity != *cap1.MeasuredCapacity {
		t.Fatalf("cached response differs: %+v vs %+v", cap2, cap1)
	}

	var op OperatingPointResponse
	getJSON(t, ts.URL+"/v1/operating-point?pfail=0.001", &op)
	if op.Voltage <= 0 || op.Voltage >= 0.7 {
		t.Fatalf("operating point at pfail 1e-3 should sit below Vcc-min 0.7, got voltage %v", op.Voltage)
	}
	var opPerf OperatingPointResponse
	getJSON(t, ts.URL+"/v1/operating-point?min_performance=0.5", &opPerf)
	if opPerf.Performance < 0.5 {
		t.Fatalf("min_performance=0.5 returned performance %v", opPerf.Performance)
	}

	var over struct {
		Rows []OverheadRow `json:"rows"`
	}
	getJSON(t, ts.URL+"/v1/overhead", &over)
	if len(over.Rows) != 6 {
		t.Fatalf("overhead rows = %d, want 6 (Table I)", len(over.Rows))
	}
	if over.Rows[0].Scheme != "Baseline" || over.Rows[0].Total <= 0 {
		t.Fatalf("unexpected first overhead row %+v", over.Rows[0])
	}

	var simResp SimResponse
	resp = postJSON(t, ts.URL+"/v1/sim", SimRequest{
		Benchmark: "crafty", Scheme: "block", Pfail: 0.001, Instructions: 3000,
	}, &simResp)
	if resp.StatusCode != 200 || simResp.IPC <= 0 {
		t.Fatalf("sim: status %d ipc %v", resp.StatusCode, simResp.IPC)
	}
	if simResp.ICapacity >= 1 {
		t.Fatalf("block-disable at pfail 1e-3 should lose capacity, got %v", simResp.ICapacity)
	}
	var simResp2 SimResponse
	resp = postJSON(t, ts.URL+"/v1/sim", SimRequest{
		Benchmark: "crafty", Scheme: "block", Pfail: 0.001, Instructions: 3000,
	}, &simResp2)
	if resp.Header.Get("X-Cache") != "hit" || simResp2.IPC != simResp.IPC {
		t.Fatalf("identical sim not cached (X-Cache %q, ipc %v vs %v)",
			resp.Header.Get("X-Cache"), simResp2.IPC, simResp.IPC)
	}
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		ts.URL + "/v1/capacity?pfail=2",
		ts.URL + "/v1/capacity?geom=banana",
		ts.URL + "/v1/operating-point?pfail=0",
	} {
		var env errorEnvelope
		resp := getJSON(t, url, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Message == "" || env.Error.Code != ErrCodeInvalidRequest {
			t.Errorf("GET %s: status %d, envelope %+v", url, resp.StatusCode, env)
		}
	}
	var env errorEnvelope
	resp := postJSON(t, ts.URL+"/v1/sweeps", map[string]any{"schemes": []string{"nope"}}, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Message == "" {
		t.Errorf("bad sweep POST: status %d, envelope %+v", resp.StatusCode, env)
	}
	resp = getJSON(t, ts.URL+"/v1/sweeps/zzz", &env)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// waitDone polls the job endpoint until the job leaves the queue/run
// states or the deadline passes.
func waitDone(t *testing.T, base, id string) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap JobSnapshot
		getJSON(t, base+"/v1/sweeps/"+id, &snap)
		switch snap.Status {
		case JobDone, JobFailed:
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, snap.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSweepE2EAndDedup(t *testing.T) {
	s, ts := newTestServer(t)

	var acc SweepAccepted
	resp := postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	if resp.StatusCode != http.StatusAccepted || acc.Cached {
		t.Fatalf("first POST: status %d cached %v", resp.StatusCode, acc.Cached)
	}
	id := acc.Job.ID
	if id == "" {
		t.Fatal("no job id")
	}

	snap := waitDone(t, ts.URL, id)
	if snap.Status != JobDone {
		t.Fatalf("job failed: %+v", snap)
	}
	if snap.Computed != 4 || snap.TotalCells != 4 || snap.Skipped != 0 {
		t.Fatalf("job counters %+v, want 4 computed of 4", snap)
	}

	rowsResp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer rowsResp.Body.Close()
	if ct := rowsResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rows content type %q", ct)
	}
	rows, err := sweep.ReadRows(rowsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("streamed %d rows, want 4", len(rows))
	}
	schemes := map[string]int{}
	for _, r := range rows {
		schemes[r.Scheme]++
	}
	if schemes["baseline"] != 2 || schemes["block-disable"] != 2 {
		t.Fatalf("row schemes %v", schemes)
	}

	// A second identical POST must be served from cache: same job id, no
	// new work, dedup counter bumped.
	var acc2 SweepAccepted
	resp = postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc2)
	if resp.StatusCode != http.StatusOK || !acc2.Cached || acc2.Job.ID != id {
		t.Fatalf("identical POST: status %d cached %v id %s (want %s)",
			resp.StatusCode, acc2.Cached, acc2.Job.ID, id)
	}
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Jobs.DedupHits < 1 {
		t.Fatalf("dedup hits %d, want >= 1", stats.Jobs.DedupHits)
	}
	if stats.Jobs.Done < 1 {
		t.Fatalf("stats report no done jobs: %+v", stats.Jobs)
	}

	// The listing shows the job too.
	var list struct {
		Jobs []JobSnapshot `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("job list %+v", list.Jobs)
	}
	_ = s
}

// TestRestartResume is the kill/restart acceptance path: a sweep
// interrupted mid-run (deterministically, via context cancellation after
// two flushed rows) leaves a checkpoint; a fresh server over the same data
// directory must finish the job without recomputing the finished cells,
// and the resumed output must be byte-identical to an uninterrupted run.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()

	req := tinySpec()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithDefaults()
	spec.Workers = 1 // serialize cells so the cut point is exact
	id := spec.CanonicalHash()

	// Simulate the killed first run: cancel after two flushed rows.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rowsPath := filepath.Join(dir, id+".rows.jsonl")
	_, err = sweep.ResumeFile(spec, rowsPath, sweep.RunOptions{
		Context: ctx,
		OnProgress: func(p sweep.Progress) {
			if p.Flushed == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run should report its cancellation")
	}
	partial, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	preRows, err := sweep.ReadRows(bytes.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if len(preRows) != 2 {
		t.Fatalf("checkpoint holds %d rows, want exactly 2", len(preRows))
	}

	// Persist the spec as the manager would have, then "restart".
	if err := writeJSONFile(filepath.Join(dir, id+".spec.json"), spec); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	snap := waitDone(t, ts.URL, id)
	if snap.Status != JobDone {
		t.Fatalf("resumed job failed: %+v", snap)
	}
	if !snap.Resumed {
		t.Fatalf("job not marked resumed: %+v", snap)
	}
	if snap.Skipped != 2 {
		t.Fatalf("resume skipped %d cells, want exactly the 2 checkpointed (no recompute)", snap.Skipped)
	}
	if snap.Computed != 2 {
		t.Fatalf("resume computed %d cells, want the remaining 2", snap.Computed)
	}

	// The stitched output must equal an uninterrupted run byte-for-byte.
	var clean bytes.Buffer
	if _, err := sweep.Run(spec, sweep.RunOptions{Out: &clean}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean.Bytes()) {
		t.Fatalf("resumed output differs from clean run (%d vs %d bytes)", len(got), clean.Len())
	}

	// And the finished job must survive yet another restart as done.
	s.Close()
	ts.Close()
	s2, err := New(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap2, ok := s2.Jobs().Get(id)
	if !ok || snap2.Status != JobDone {
		t.Fatalf("done job lost across restart: ok=%v %+v", ok, snap2)
	}
}

// TestFailedJobSurvivesRestart: a deterministically failing job must stay
// failed — with its error — across a restart instead of being resurrected
// and re-run forever.
func TestFailedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerTiered(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := tinySpec()
	req.Benchmarks = []string{"no-such-benchmark"}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	snap, cached, err := m.Enqueue(spec)
	if err != nil || cached {
		t.Fatalf("enqueue: cached=%v err=%v", cached, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, _ = m.Get(snap.ID)
		if snap.Status == JobFailed {
			break
		}
		if snap.Status == JobDone || time.Now().After(deadline) {
			t.Fatalf("job should have failed, got %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Error == "" {
		t.Fatal("failed job lost its error")
	}
	m.Close()

	m2, err := NewManagerTiered(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	snap2, ok := m2.Get(snap.ID)
	if !ok || snap2.Status != JobFailed || snap2.Error == "" {
		t.Fatalf("failure not persisted across restart: ok=%v %+v", ok, snap2)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s, ts := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	resp := postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &env)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestServeGracefulShutdown exercises the full Serve lifecycle on a real
// listener: start, answer a request, cancel the context, exit cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	ln := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, Config{Addr: ln, DataDir: t.TempDir(), DrainTimeout: 5 * time.Second})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + ln + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// freeAddr grabs an unused localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestSweepRequestValidation(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1, MaxGridCells: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	var env errorEnvelope
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Pfails: manyPfails(100), Schemes: []string{"baseline", "block", "word"},
		Geometries: []string{"32768x8x64", "16384x4x64"},
	}, &env)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized grid accepted: status %d", resp.StatusCode)
	}
}

func manyPfails(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.0001 + float64(i)*0.00001
	}
	return out
}

func TestManagerQueueFullAndSpecRoundTrip(t *testing.T) {
	// Spec JSON round-trip: what the manager persists must rehash to the
	// same id after a restart, or recovery would duplicate jobs.
	spec := sweep.Spec{
		Pfails:  []float64{0.001},
		Schemes: []sim.Scheme{sim.BlockDisable},
		Trials:  1, Instructions: 1000, BaseSeed: 3,
	}.WithDefaults()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back sweep.Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.CanonicalHash() != spec.CanonicalHash() {
		t.Fatalf("spec hash changed across JSON round-trip: %s vs %s",
			back.CanonicalHash(), spec.CanonicalHash())
	}
}

func TestCanonicalHashProperties(t *testing.T) {
	base := tinySpec()
	spec1, _ := base.Spec()
	spec2, _ := base.Spec()
	if spec1.CanonicalHash() != spec2.CanonicalHash() {
		t.Fatal("equal specs must hash equal")
	}
	spec2.Workers = 16
	if spec1.CanonicalHash() != spec2.CanonicalHash() {
		t.Fatal("Workers must not affect the hash (scheduling, not results)")
	}
	spec2.BaseSeed = 99
	if spec1.CanonicalHash() == spec2.CanonicalHash() {
		t.Fatal("BaseSeed must affect the hash")
	}
	spec3, _ := base.Spec()
	spec3.Pfails = []float64{0.002, 0.001} // same values, different order
	if spec1.CanonicalHash() == spec3.CanonicalHash() {
		t.Fatal("axis order must affect the hash (it changes cell indices)")
	}
	joined, _ := base.Spec()
	joined.Benchmarks = []string{"a,b"}
	split, _ := base.Spec()
	split.Benchmarks = []string{"a", "b"}
	if joined.CanonicalHash() == split.CanonicalHash() {
		t.Fatal(`benchmarks ["a,b"] and ["a","b"] must not collide`)
	}
	if fmt.Sprintf("%s", spec1.CanonicalHash()) == "" {
		t.Fatal("empty hash")
	}
}
