package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vccmin/internal/benchreg"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.total != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	durs := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond,
		1 * time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, d := range durs {
		h.Record(d)
	}
	if h.total != uint64(len(durs)) {
		t.Fatalf("count %d, want %d", h.total, len(durs))
	}
	if h.min != durs[0] || h.Max() != durs[len(durs)-1] {
		t.Fatalf("min %v max %v, want %v and %v", h.min, h.Max(), durs[0], durs[len(durs)-1])
	}
	// Exact mean, bucketed quantiles: the median must land within one
	// bucket (±15%) of the true middle observations, and quantiles must
	// be monotone in q with clamped tails.
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 250*time.Microsecond || p50 > 350*time.Microsecond {
		t.Fatalf("p50 %v, want ~300µs", p50)
	}
	if p99 != h.Max() {
		t.Fatalf("p99 %v, want clamped to max %v (rank 6 of 6)", p99, h.Max())
	}
	if h.Quantile(0) > p50 || p50 > h.Quantile(0.9) || h.Quantile(0.9) > p99 {
		t.Fatal("quantiles not monotone")
	}
	wantMean := (100 + 200 + 300 + 1000 + 10000 + 100000) * time.Microsecond / 6
	if h.Mean() != wantMean {
		t.Fatalf("mean %v, want %v", h.Mean(), wantMean)
	}
	var total uint64
	for _, b := range h.Buckets() {
		total += b.Count
	}
	if total != h.total {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.total)
	}
}

// TestRunClassifiesOutcomes replays a mix against a stub server whose
// paths answer 200, 429 and 503, and checks the report's accounting
// matches what the server actually saw.
func TestRunClassifiesOutcomes(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		switch r.URL.Path {
		case "/ok":
			w.WriteHeader(200)
		case "/limited":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/shed":
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(404)
		}
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix: []Endpoint{
			{Name: "ok", Weight: 2, Method: "GET", Path: "/ok"},
			{Name: "limited", Weight: 1, Method: "GET", Path: "/limited"},
			{Name: "shed", Weight: 1, Method: "GET", Path: "/shed"},
			{Name: "missing", Weight: 1, Method: "GET", Path: "/nope"},
		},
		Rate:     5000,
		Requests: 200,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Sent != 200 || hits.Load() != 200 {
		t.Fatalf("sent %d, server saw %d, want 200/200", rep.Total.Sent, hits.Load())
	}
	if got := rep.Total.OK + rep.Total.RateLimited + rep.Total.Shed + rep.Total.OtherStatus; got != 200 {
		t.Fatalf("classified %d of 200", got)
	}
	byName := map[string]EndpointReport{}
	for _, e := range rep.Endpoints {
		byName[e.Name] = e
	}
	if e := byName["limited"]; e.RateLimited != e.Sent || e.OK != 0 {
		t.Fatalf("limited endpoint: %+v, want all 429", e)
	}
	if e := byName["shed"]; e.Shed != e.Sent {
		t.Fatalf("shed endpoint: %+v, want all 503", e)
	}
	if e := byName["missing"]; e.OtherStatus != e.Sent {
		t.Fatalf("missing endpoint: %+v, want all other_status", e)
	}
	if e := byName["ok"]; e.OK != e.Sent || e.P50Ns <= 0 {
		t.Fatalf("ok endpoint: %+v, want all 2xx with latency", e)
	}
	// The weighted pick is seeded: "ok" (weight 2 of 5) must dominate.
	if byName["ok"].Sent <= byName["limited"].Sent {
		t.Fatal("weight-2 endpoint did not receive the largest share")
	}
}

// TestRunDeterministicSequence pins the seeded pick: same seed, same
// per-endpoint request counts.
func TestRunDeterministicSequence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	cfg := Config{
		BaseURL: srv.URL,
		Mix: []Endpoint{
			{Name: "a", Weight: 1, Method: "GET", Path: "/a"},
			{Name: "b", Weight: 3, Method: "GET", Path: "/b"},
		},
		Rate: 5000, Requests: 100, Seed: 7,
	}
	counts := func(rep *Report) map[string]int {
		m := map[string]int{}
		for _, e := range rep.Endpoints {
			m[e.Name] = e.Sent
		}
		return m
	}
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := counts(r1), counts(r2)
	if c1["a"] != c2["a"] || c1["b"] != c2["b"] {
		t.Fatalf("same seed produced different mixes: %v vs %v", c1, c2)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Rate: 1, Requests: 1}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Requests: 1}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Rate: 1}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := Run(context.Background(), Config{
		BaseURL: "http://x", Rate: 1, Requests: 1,
		Mix: []Endpoint{{Name: "a", Weight: 0}},
	}); err == nil {
		t.Fatal("weightless mix accepted")
	}
}

// TestBenchFormatRoundTrips guards the contract with vccmin-bench
// -extra: the emitted lines must parse under benchreg with the latency
// and throughput metrics intact.
func TestBenchFormatRoundTrips(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix:     []Endpoint{{Name: "only", Weight: 1, Method: "GET", Path: "/"}},
		Rate:    5000, Requests: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteBenchFormat(&sb); err != nil {
		t.Fatal(err)
	}
	benches, err := benchreg.ParseBenchOutput(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("benchreg rejected loadgen output: %v\n%s", err, sb.String())
	}
	if len(benches) != 2 { // total + the one endpoint
		t.Fatalf("parsed %d result lines, want 2:\n%s", len(benches), sb.String())
	}
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkLoadgen/") {
			t.Fatalf("bench name %q", b.Name)
		}
		if b.Iterations != 50 || b.NsPerOp <= 0 {
			t.Fatalf("bench %q: iters %d ns/op %v", b.Name, b.Iterations, b.NsPerOp)
		}
		for _, unit := range []string{"p90-ns", "p99-ns", "req/s", "shed-frac", "limited-frac"} {
			if _, ok := b.Metrics[unit]; !ok {
				t.Fatalf("bench %q missing metric %s (has %v)", b.Name, unit, b.Metrics)
			}
		}
	}
}

// TestExtendedMixExtendsDefault pins the compatibility contract: the
// extended mix is the default mix verbatim plus the fleet and query
// endpoints — DefaultMix itself never changes shape under it, so
// snapshots recorded against the default replay identical streams.
func TestExtendedMixExtendsDefault(t *testing.T) {
	def, ext := DefaultMix(), ExtendedMix()
	if len(ext) != len(def)+2 {
		t.Fatalf("extended mix has %d endpoints, want default %d + 2", len(ext), len(def))
	}
	for i, e := range def {
		if ext[i] != e {
			t.Fatalf("extended mix entry %d (%s) differs from the default mix", i, e.Name)
		}
	}
	names := map[string]bool{}
	for _, e := range ext {
		if names[e.Name] {
			t.Fatalf("duplicate endpoint name %q", e.Name)
		}
		names[e.Name] = true
		if e.Weight <= 0 || e.Method == "" || !strings.HasPrefix(e.Path, "/v1/") {
			t.Fatalf("malformed endpoint %+v", e)
		}
	}
	if !names["fleet"] || !names["query"] {
		t.Fatal("extended mix must carry the fleet and query endpoints")
	}
}
