// Package loadgen is the mixed-traffic replay engine behind
// cmd/vccmin-loadgen: it fires a weighted endpoint mix at a running
// service at a fixed open-loop arrival rate and reports per-endpoint
// latency histograms plus the traffic-hardening outcomes (how many
// requests were answered, rate-limited with 429, or shed with 503).
//
// Open loop means the i-th request launches at start + i/rate
// regardless of whether earlier requests have finished — the arrival
// process never slows down to match a struggling server, which is
// exactly what makes saturation (and the admission control's response
// to it) visible. A closed-loop client would self-throttle and hide it.
//
// Everything is deterministic given the seed: the endpoint sequence
// comes from a seeded PRNG, so two runs against equally-behaving
// servers replay the same request stream.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Endpoint is one entry of the traffic mix.
type Endpoint struct {
	// Name labels the endpoint in reports and bench output; it must be
	// unique within a mix and look like a path segment (e.g. "capacity").
	Name string `json:"name"`
	// Weight is the endpoint's relative share of the mix; <= 0 removes
	// it from the mix.
	Weight float64 `json:"weight"`
	Method string  `json:"method"`
	// Path is the target path and query, relative to the base URL.
	Path string `json:"path"`
	// Body is the JSON request body for POSTs ("" for none).
	Body string `json:"body,omitempty"`
}

// Config parameterizes one run.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8780".
	BaseURL string `json:"base_url" flag:"base" help:"base URL of a running service (e.g. http://127.0.0.1:8780)"`
	// Mix is the weighted endpoint set; DefaultMix() when empty.
	Mix []Endpoint
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64 `json:"rate" help:"open-loop arrival rate, requests/second"`
	// Requests is the total number of requests to launch.
	Requests int `json:"requests" help:"total requests to launch"`
	// Timeout bounds each request; default 30s.
	Timeout time.Duration `json:"timeout" help:"per-request timeout"`
	// Seed drives the endpoint-pick PRNG; default 1.
	Seed int64 `json:"seed" help:"endpoint-pick PRNG seed"`
	// APIKey, when set, is sent as X-API-Key (the rate limiter's
	// per-client key) on every request.
	APIKey string `json:"api_key" help:"X-API-Key sent with every request (the rate limiter's client key)"`
}

// WithDefaults returns the config with Mix, Timeout and Seed defaulted
// when unset. Its json-tagged fields are vccmin-loadgen's flags
// (cliflag.Bind), which take their defaults from here.
func (c Config) WithDefaults() Config {
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DefaultMix is a mixed interactive/batch workload over the service's
// endpoints: cache-friendly analytics GETs, a compute POST, a sweep
// enqueue (batch-shaped, sheddable) and a stats probe. Weights sum to
// 10, so a weight of 1 is 10% of traffic.
func DefaultMix() []Endpoint {
	return []Endpoint{
		{Name: "capacity", Weight: 3, Method: "GET", Path: "/v1/capacity?pfail=1e-3"},
		{Name: "operating-point", Weight: 2, Method: "GET", Path: "/v1/operating-point?pfail=1e-3"},
		{Name: "overhead", Weight: 1, Method: "GET", Path: "/v1/overhead"},
		{Name: "sim", Weight: 2, Method: "POST", Path: "/v1/sim",
			Body: `{"benchmark":"crafty","scheme":"block","pfail":0.001,"instructions":3000}`},
		{Name: "sweep", Weight: 1, Method: "POST", Path: "/v1/sweeps",
			Body: `{"pfails":[0.001],"schemes":["block"],"benchmarks":["crafty"],"trials":1,"instructions":3000}`},
		{Name: "stats", Weight: 1, Method: "GET", Path: "/v1/stats"},
	}
}

// ExtendedMix is DefaultMix plus the two newest endpoints: a small
// GET /v1/fleet population sweep (interactive-tier, cache-friendly)
// and a POST /v1/query aggregation whose inline sweep is batch-shaped
// on first sight and cached after. It is a separate constructor, not a
// change to DefaultMix, so existing snapshots replay the exact request
// stream they always did; runs that want the fleet and query latencies
// in the picture opt in via vccmin-loadgen's -mix flag.
func ExtendedMix() []Endpoint {
	return append(DefaultMix(),
		Endpoint{Name: "fleet", Weight: 1, Method: "GET",
			Path: "/v1/fleet?dies=64&schemes=block&seed=1"},
		Endpoint{Name: "query", Weight: 1, Method: "POST", Path: "/v1/query",
			Body: `{"sweep":{"pfails":[0.001],"schemes":["block"],"benchmarks":["crafty"],"trials":1,"instructions":3000},"group_by":["scheme"],"metrics":["expected_capacity","mean_ipc"]}`},
	)
}

// EndpointReport is one endpoint's slice of the run.
type EndpointReport struct {
	Name        string       `json:"name"`
	Sent        int          `json:"sent"`
	OK          int          `json:"ok"`           // 2xx
	RateLimited int          `json:"rate_limited"` // 429
	Shed        int          `json:"shed"`         // 503
	OtherStatus int          `json:"other_status"` // any remaining status
	Errors      int          `json:"errors"`       // transport errors, timeouts
	P50Ns       float64      `json:"p50_ns"`
	P90Ns       float64      `json:"p90_ns"`
	P99Ns       float64      `json:"p99_ns"`
	MaxNs       float64      `json:"max_ns"`
	MeanNs      float64      `json:"mean_ns"`
	Buckets     []HistBucket `json:"buckets,omitempty"`
}

// Report is the run's full result.
type Report struct {
	BaseURL     string           `json:"base_url"`
	Requests    int              `json:"requests"`
	OfferedRate float64          `json:"offered_rate"` // configured arrival rate, req/s
	ElapsedSec  float64          `json:"elapsed_sec"`
	Throughput  float64          `json:"throughput"` // 2xx answered per second
	Seed        int64            `json:"seed"`
	Total       EndpointReport   `json:"total"` // Name "total"; aggregate over the mix
	Endpoints   []EndpointReport `json:"endpoints"`
}

// outcome travels from a request goroutine to the collector.
type outcome struct {
	endpoint int
	status   int // 0 = transport error
	latency  time.Duration
}

// Run replays the configured traffic and collects the report. The
// context cancels the run early (in-flight requests are abandoned);
// whatever completed is still reported.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive, got %d", cfg.Requests)
	}
	cfg = cfg.WithDefaults()
	mix := cfg.Mix
	var totalWeight float64
	for _, e := range mix {
		if e.Weight > 0 {
			totalWeight += e.Weight
		}
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	client := &http.Client{Timeout: cfg.Timeout}
	base := strings.TrimRight(cfg.BaseURL, "/")

	// Cumulative-weight pick table.
	type cum struct {
		upTo float64
		idx  int
	}
	var cums []cum
	var acc float64
	for i, e := range mix {
		if e.Weight <= 0 {
			continue
		}
		acc += e.Weight
		cums = append(cums, cum{upTo: acc, idx: i})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func() int {
		x := rng.Float64() * totalWeight
		for _, c := range cums {
			if x < c.upTo {
				return c.idx
			}
		}
		return cums[len(cums)-1].idx
	}

	results := make(chan outcome, 256)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()

	// Scheduler: open-loop arrivals at start + i*interval. Endpoint
	// picks happen here (the PRNG is not concurrency-safe), so the
	// request sequence is a pure function of the seed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cfg.Requests; i++ {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			} else if ctx.Err() != nil {
				return
			}
			ep := pick()
			wg.Add(1)
			go func(ep int) {
				defer wg.Done()
				results <- fire(ctx, client, base, cfg.APIKey, mix[ep], ep)
			}(ep)
		}
	}()
	// Close the results channel once the scheduler and every request
	// goroutine are done; the collector below drains until then.
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: single goroutine owns the histograms.
	hists := make([]*Histogram, len(mix))
	reports := make([]EndpointReport, len(mix))
	for i, e := range mix {
		hists[i] = &Histogram{}
		reports[i].Name = e.Name
	}
	totalHist := &Histogram{}
	total := EndpointReport{Name: "total"}
	for o := range results {
		r := &reports[o.endpoint]
		r.Sent++
		total.Sent++
		switch {
		case o.status == 0:
			r.Errors++
			total.Errors++
			continue // no latency for transport failures
		case o.status >= 200 && o.status < 300:
			r.OK++
			total.OK++
		case o.status == http.StatusTooManyRequests:
			r.RateLimited++
			total.RateLimited++
		case o.status == http.StatusServiceUnavailable:
			r.Shed++
			total.Shed++
		default:
			r.OtherStatus++
			total.OtherStatus++
		}
		hists[o.endpoint].Record(o.latency)
		totalHist.Record(o.latency)
	}
	elapsed := time.Since(start)

	fill := func(r *EndpointReport, h *Histogram) {
		r.P50Ns = float64(h.Quantile(0.50))
		r.P90Ns = float64(h.Quantile(0.90))
		r.P99Ns = float64(h.Quantile(0.99))
		r.MaxNs = float64(h.Max())
		r.MeanNs = float64(h.Mean())
		r.Buckets = h.Buckets()
	}
	fill(&total, totalHist)
	var eps []EndpointReport
	for i := range reports {
		if reports[i].Sent == 0 {
			continue
		}
		fill(&reports[i], hists[i])
		eps = append(eps, reports[i])
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Name < eps[j].Name })

	rep := &Report{
		BaseURL:     cfg.BaseURL,
		Requests:    total.Sent,
		OfferedRate: cfg.Rate,
		ElapsedSec:  elapsed.Seconds(),
		Seed:        cfg.Seed,
		Total:       total,
		Endpoints:   eps,
	}
	if elapsed > 0 {
		rep.Throughput = float64(total.OK) / elapsed.Seconds()
	}
	return rep, nil
}

// fire issues one request and classifies its outcome. The body is fully
// drained so the client's connection pool can reuse the socket — at
// open-loop rates, fresh handshakes per request would measure the
// dialer, not the server.
func fire(ctx context.Context, client *http.Client, base, apiKey string, e Endpoint, idx int) outcome {
	var body io.Reader
	if e.Body != "" {
		body = strings.NewReader(e.Body)
	}
	req, err := http.NewRequestWithContext(ctx, e.Method, base+e.Path, body)
	if err != nil {
		return outcome{endpoint: idx}
	}
	if e.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{endpoint: idx}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return outcome{endpoint: idx, status: resp.StatusCode, latency: time.Since(t0)}
}

// WriteBenchFormat renders the report as `go test -bench`-style result
// lines — one per endpoint plus the aggregate — that
// benchreg.ParseBenchOutput accepts, so `vccmin-bench -extra` can merge
// a loadgen run into a BENCH_<n>.json snapshot alongside the micro
// benchmarks. ns/op carries the p50 latency (the primary per-op cost);
// tail latencies and traffic outcomes ride as custom metrics.
func (r *Report) WriteBenchFormat(w io.Writer) error {
	write := func(e *EndpointReport) error {
		if e.Sent == 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "BenchmarkLoadgen/%s %d %.0f ns/op %.0f p90-ns %.0f p99-ns %.2f req/s %.4f shed-frac %.4f limited-frac\n",
			e.Name, e.Sent, e.P50Ns, e.P90Ns, e.P99Ns,
			float64(e.OK)/r.ElapsedSec,
			frac(e.Shed, e.Sent), frac(e.RateLimited, e.Sent))
		return err
	}
	if err := write(&r.Total); err != nil {
		return err
	}
	for i := range r.Endpoints {
		if err := write(&r.Endpoints[i]); err != nil {
			return err
		}
	}
	return nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Summary renders a terse human-readable digest of the run.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d requests @ %.0f req/s offered against %s in %.2fs\n",
		r.Requests, r.OfferedRate, r.BaseURL, r.ElapsedSec)
	fmt.Fprintf(w, "  answered 2xx: %d (%.1f req/s)  429: %d  503: %d  other: %d  errors: %d\n",
		r.Total.OK, r.Throughput, r.Total.RateLimited, r.Total.Shed, r.Total.OtherStatus, r.Total.Errors)
	fmt.Fprintf(w, "  latency p50 %s  p90 %s  p99 %s  max %s\n",
		time.Duration(r.Total.P50Ns), time.Duration(r.Total.P90Ns),
		time.Duration(r.Total.P99Ns), time.Duration(r.Total.MaxNs))
	for _, e := range r.Endpoints {
		fmt.Fprintf(w, "  %-16s sent %5d  ok %5d  429 %4d  503 %4d  err %3d  p50 %s  p99 %s\n",
			e.Name, e.Sent, e.OK, e.RateLimited, e.Shed, e.Errors,
			time.Duration(e.P50Ns), time.Duration(e.P99Ns))
	}
}
