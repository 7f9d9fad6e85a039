package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// newTrafficServer builds a server with explicit traffic-hardening
// knobs (the default test server disables them).
func newTrafficServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = t.TempDir()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doGet(t *testing.T, url, apiKey string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest("GET", url, nil)
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRateLimit429 is the acceptance path: past the burst, a client
// gets 429 with a Retry-After header and the rate_limited envelope,
// while other clients and the liveness probe keep flowing.
func TestRateLimit429(t *testing.T) {
	// 1 token per 10s with burst 2: the third request cannot sneak a
	// refilled token even on a slow runner.
	_, ts := newTrafficServer(t, Config{RateLimit: 0.1, RateBurst: 2})

	for i := 0; i < 2; i++ {
		resp := doGet(t, ts.URL+"/v1/overhead", "client-a")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d within burst: status %d", i+1, resp.StatusCode)
		}
	}
	resp := doGet(t, ts.URL+"/v1/overhead", "client-a")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != ErrCodeRateLimited || env.Error.Details["retry_after_seconds"] == nil {
		t.Fatalf("envelope %+v, want code rate_limited with retry details", env.Error)
	}

	// Another client's bucket is untouched.
	resp2 := doGet(t, ts.URL+"/v1/overhead", "client-b")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("different client: status %d, want 200", resp2.StatusCode)
	}

	// Liveness is exempt no matter how hot the client is.
	for i := 0; i < 5; i++ {
		resp := doGet(t, ts.URL+"/v1/healthz", "client-a")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz rate limited (status %d)", resp.StatusCode)
		}
	}
}

// TestAdmissionShed is the load-shedding acceptance path: once the
// batch backlog crosses the watermark, new batch-shaped work gets 503 +
// Retry-After while interactive endpoints and dedup hits keep flowing.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTrafficServer(t, Config{Workers: 1, ShedWatermark: 1})

	// Occupy the lone batch worker with a long job...
	var run SweepAccepted
	if resp := postJSON(t, ts.URL+"/v1/sweeps", slowSpec(), &run); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: status %d", resp.StatusCode)
	}
	// The backlog counts only queued jobs: wait until the worker has
	// taken job 1, or the second POST itself would meet the watermark.
	deadline := time.Now().Add(5 * time.Second)
	for s.jobs.BatchBacklog() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and park a second job in the queue to reach the watermark.
	second := tinySpec()
	second.BaseSeed = 1001
	if resp := postJSON(t, ts.URL+"/v1/sweeps", second, &SweepAccepted{}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST: status %d", resp.StatusCode)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.jobs.BatchBacklog() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// New sweep work is shed.
	third := tinySpec()
	third.BaseSeed = 1002
	b, _ := json.Marshal(third)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != ErrCodeOverloaded {
		t.Fatalf("shed POST: status %d code %q, want 503 overloaded", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}

	// Batch requests are shed by the same watermark.
	batchBody := []byte(`{"requests":[{"kind":"overhead"}]}`)
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch under saturation: status %d, want 503", resp.StatusCode)
	}

	// A duplicate of a known spec still answers: the dedup hit costs
	// nothing, and is likely the very retry the 503 asked for.
	var dup SweepAccepted
	if resp := postJSON(t, ts.URL+"/v1/sweeps", slowSpec(), &dup); resp.StatusCode != http.StatusOK || !dup.Cached {
		t.Fatalf("dedup POST under saturation: status %d cached %v, want 200 true", resp.StatusCode, dup.Cached)
	}

	// Interactive endpoints keep flowing on their own tier.
	var capResp CapacityResponse
	if resp := getJSON(t, ts.URL+"/v1/capacity?pfail=0.001", &capResp); resp.StatusCode != 200 {
		t.Fatalf("interactive GET under batch saturation: status %d", resp.StatusCode)
	}

	// The shed counter surfaced in /v1/stats.
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Traffic.Shed < 2 {
		t.Fatalf("stats report %d shed, want >= 2", st.Traffic.Shed)
	}
}

// TestSweepListPagination covers ?offset/?limit and X-Total-Count on
// the job listing.
func TestSweepListPagination(t *testing.T) {
	_, ts := newTestServer(t)

	for seed := int64(1); seed <= 3; seed++ {
		spec := tinySpec()
		spec.BaseSeed = seed
		var acc SweepAccepted
		postJSON(t, ts.URL+"/v1/sweeps", spec, &acc)
		waitDone(t, ts.URL, acc.Job.ID)
	}

	var page SweepList
	resp := getJSON(t, ts.URL+"/v1/sweeps?offset=1&limit=1", &page)
	if resp.Header.Get("X-Total-Count") != "3" {
		t.Fatalf("X-Total-Count %q, want 3", resp.Header.Get("X-Total-Count"))
	}
	if len(page.Jobs) != 1 || page.Total != 3 || page.Offset != 1 {
		t.Fatalf("page %+v, want 1 job of 3 at offset 1", page)
	}

	var all SweepList
	getJSON(t, ts.URL+"/v1/sweeps", &all)
	if len(all.Jobs) != 3 {
		t.Fatalf("unpaginated list has %d jobs, want 3", len(all.Jobs))
	}
	if all.Jobs[1].ID != page.Jobs[0].ID {
		t.Fatal("offset=1 page does not match the full listing's second entry")
	}

	var empty SweepList
	getJSON(t, ts.URL+"/v1/sweeps?offset=10", &empty)
	if len(empty.Jobs) != 0 || empty.Total != 3 {
		t.Fatalf("past-the-end page %+v, want empty with total 3", empty)
	}

	var env errorEnvelope
	if resp := getJSON(t, ts.URL+"/v1/sweeps?offset=-1", &env); resp.StatusCode != 400 {
		t.Fatalf("bad offset: status %d, want 400", resp.StatusCode)
	}
}

// TestRowsPagination covers ?offset/?limit and X-Total-Count on the row
// download.
func TestRowsPagination(t *testing.T) {
	_, ts := newTestServer(t)

	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	id := acc.Job.ID
	waitDone(t, ts.URL, id)

	resp, full := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows")
	if resp.Header.Get("X-Total-Count") != "4" {
		t.Fatalf("X-Total-Count %q, want 4", resp.Header.Get("X-Total-Count"))
	}
	lines := splitLines(full)
	if len(lines) != 4 {
		t.Fatalf("%d rows, want 4", len(lines))
	}

	resp, page := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows?offset=1&limit=2")
	if resp.Header.Get("X-Total-Count") != "4" {
		t.Fatalf("paged X-Total-Count %q, want 4", resp.Header.Get("X-Total-Count"))
	}
	if want := lines[1] + lines[2]; string(page) != want {
		t.Fatalf("offset=1&limit=2 returned %q, want %q", page, want)
	}

	resp, tail := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows?offset=10")
	if len(tail) != 0 || resp.Header.Get("X-Total-Count") != "4" {
		t.Fatalf("past-the-end rows page: body %q count %q", tail, resp.Header.Get("X-Total-Count"))
	}
}
