// Package service is the long-running HTTP face of the repository: a
// thin adapter layer over the content-addressed compute engine. Every
// handler — the Section IV analysis, the Table I overhead accounting,
// the Fig. 1 operating-point model, single simulations, the DVFS Pareto
// explorer and the heterogeneous batch endpoint — constructs the same
// typed tasks the CLIs construct and executes them through one
// engine.Engine: an in-memory LRU fronting a content-addressed on-disk
// store (surviving restarts alongside the sweep checkpoints), with
// singleflight deduplication of concurrent identical requests. Sweeps
// additionally run as async jobs with checkpoint/resume, and their rows
// stream live over SSE as they flush.
//
// Traffic hardening: every request passes a per-client token-bucket
// rate limiter (X-API-Key header or remote IP; 429 + Retry-After when
// over), synchronous compute runs on the interactive tier of a
// two-tier worker pool so queued batch work can never starve it, and
// batch-shaped work (sweep jobs, POST /v1/batch) is shed with 503 +
// Retry-After once the batch backlog crosses the admission watermark —
// the service keeps delivering useful work at a degraded operating
// point instead of stalling, exactly the paper's thesis applied to
// serving.
//
// Endpoints (all JSON; errors use the versioned
// {"error":{"code","message","details"}} envelope; wrong methods get
// 405 with an Allow header):
//
//	GET  /v1/healthz                 liveness (never rate limited)
//	GET  /v1/stats                   build version, engine/pool/limiter/job counters
//	GET  /v1/capacity                Eq. 1-6 analytics (+ optional Monte Carlo check)
//	GET  /v1/operating-point         Fig. 1 model at a pfail or performance floor
//	GET  /v1/overhead                Table I transistor rows
//	GET  /v1/dvfs                    phase-aware DVFS Pareto explorer
//	POST /v1/sim                     one simulation run, synchronous
//	POST /v1/query                   colstore aggregation over a sweep's result set
//	POST /v1/batch                   heterogeneous task list, batch tier, sheddable
//	POST /v1/sweeps                  enqueue a sweep job (202; idempotent by spec hash)
//	GET  /v1/sweeps                  list jobs (?offset=&limit=, X-Total-Count)
//	GET  /v1/sweeps/{id}             job status and progress
//	GET  /v1/sweeps/{id}/rows        the job's JSONL rows (?offset=&limit=, X-Total-Count)
//	GET  /v1/sweeps/{id}/stream      live rows: SSE with resume, or ?format=jsonl
//
// Determinism is what makes the serving layer simple: every result is a
// pure function of the request (seeds derive from parameters), so
// neither store tier nor the sweep-job deduplication needs invalidation.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vccmin/internal/buildinfo"
	"vccmin/internal/engine"
	"vccmin/internal/limit"
	"vccmin/internal/tasks"
)

// Config sizes the service. Its json-tagged fields are vccmin-serve's
// flags (cliflag.Bind), so each is declared, described and defaulted
// only here.
type Config struct {
	// Addr is the listen address for Serve; default ":8780".
	Addr string `json:"addr" help:"listen address"`

	// DataDir holds sweep-job specs, row checkpoints and the engine's
	// content-addressed result store (under results/). Jobs found there
	// resume on startup; results found there serve without recompute.
	// Default "vccmin-serve-data".
	DataDir string `json:"data_dir" flag:"data" help:"directory for sweep-job specs, row checkpoints and the engine result store"`

	// Workers bounds concurrently running sweep jobs (the pool's batch
	// tier); default 2. Cell parallelism inside a job is the spec's own
	// Workers field.
	Workers int `json:"workers" help:"concurrently running sweep jobs"`

	// InteractiveWorkers are additional pool workers reserved for the
	// synchronous endpoints' compute, so sweep saturation never starves
	// them; default GOMAXPROCS (at least 2).
	InteractiveWorkers int `json:"interactive_workers" help:"workers reserved for synchronous endpoints (0 = GOMAXPROCS)"`

	// ShedWatermark is the admission threshold: once this many batch
	// items (sweep jobs, batch requests) are queued and not yet running,
	// new batch-shaped work is shed with 503 + Retry-After while
	// interactive endpoints keep flowing. Default 64.
	ShedWatermark int `json:"shed_watermark" help:"queued batch items beyond which new batch work is shed with 503"`

	// RateLimit is the per-client request budget in requests per second
	// (clients are keyed by X-API-Key, falling back to remote IP).
	// Zero disables rate limiting.
	RateLimit float64 `json:"rate_limit" help:"per-client requests/second budget (0 disables rate limiting)"`

	// RateBurst is the token-bucket depth; default 2×RateLimit.
	RateBurst float64 `json:"rate_burst" help:"per-client token-bucket depth (0 = 2x rate-limit)"`

	// CacheEntries bounds the engine's in-memory result tier; default 512.
	CacheEntries int `json:"cache_entries" flag:"cache" help:"in-memory result-tier entries for synchronous endpoints"`

	// MaxGridCells rejects sweep specs whose grids exceed it; default 4096.
	MaxGridCells int `json:"max_grid_cells" flag:"max-grid" help:"largest accepted sweep grid (cells)"`

	// MaxBatchItems bounds one POST /v1/batch request; default 64.
	MaxBatchItems int `json:"max_batch_items" flag:"max-batch" help:"largest accepted POST /v1/batch request (items)"`

	// DrainTimeout bounds the graceful half of shutdown; default 30s.
	DrainTimeout time.Duration `json:"drain_timeout" help:"graceful-shutdown budget for in-flight jobs"`

	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request header (slowloris hardening); default 10s.
	ReadHeaderTimeout time.Duration `json:"read_header_timeout" help:"slowloris guard: how long a connection may take to send its header"`

	// MaxHeaderBytes bounds a request's header block; default 1 MiB.
	MaxHeaderBytes int `json:"max_header_bytes" help:"largest accepted request-header block"`
}

// WithDefaults returns the config with every unset field defaulted.
// RateLimit has no default: zero disables rate limiting.
func (c Config) WithDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8780"
	}
	if c.DataDir == "" {
		c.DataDir = "vccmin-serve-data"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.InteractiveWorkers <= 0 {
		c.InteractiveWorkers = runtime.GOMAXPROCS(0)
		if c.InteractiveWorkers < 2 {
			c.InteractiveWorkers = 2
		}
	}
	if c.ShedWatermark <= 0 {
		c.ShedWatermark = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.MaxGridCells <= 0 {
		c.MaxGridCells = 4096
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 1 << 20
	}
	return c
}

// Re-exported task shapes, so the HTTP surface and the task layer are
// visibly the same types.
type (
	// CapacityResponse is the GET /v1/capacity payload.
	CapacityResponse = tasks.CapacityResponse
	// OperatingPointResponse is the GET /v1/operating-point payload.
	OperatingPointResponse = tasks.OperatingPointResponse
	// OverheadRow is one Table I row of the GET /v1/overhead payload.
	OverheadRow = tasks.OverheadRow
	// SimRequest is the POST /v1/sim body.
	SimRequest = tasks.SimRequest
	// SimResponse is the POST /v1/sim payload.
	SimResponse = tasks.SimResponse
	// SweepRequest is the POST /v1/sweeps body.
	SweepRequest = tasks.SweepRequest
	// QueryRequest is the POST /v1/query body.
	QueryRequest = tasks.QueryRequest
	// QueryResponse is the POST /v1/query payload.
	QueryResponse = tasks.QueryResponse
	// DVFSResponse is the GET /v1/dvfs payload.
	DVFSResponse = tasks.DVFSResponse
)

// Server routes the API over the compute engine, the sweep-job manager
// and the traffic-hardening layers (rate limiter, admission control).
type Server struct {
	cfg     Config
	jobs    *Manager
	eng     *engine.Engine
	mux     *http.ServeMux
	handler http.Handler
	limiter *limit.Limiter // nil when rate limiting is disabled

	rateLimited atomic.Uint64 // requests answered 429
	shed        atomic.Uint64 // requests answered 503 by admission control
}

// New builds a server: the compute engine over <DataDir>/results (so
// previously computed results replay across restarts), the job manager
// and two-tier pool over the sweep checkpoints in DataDir, and the
// per-client rate limiter when cfg.RateLimit is set.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	eng, err := engine.New(engine.Options{
		MemEntries: cfg.CacheEntries,
		Dir:        filepath.Join(cfg.DataDir, "results"),
	})
	if err != nil {
		return nil, err
	}
	jobs, err := NewManagerTiered(cfg.DataDir, cfg.Workers, cfg.InteractiveWorkers)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, jobs: jobs, eng: eng, mux: http.NewServeMux()}
	if cfg.RateLimit > 0 {
		s.limiter = limit.New(cfg.RateLimit, cfg.RateBurst)
	}
	s.routes()
	s.handler = s.withTraffic(s.mux)
	return s, nil
}

// routes registers every endpoint plus, per path, a method-less
// fallback that answers any other verb with 405 and an Allow header
// (the stdlib mux would otherwise reply with a bare text error).
func (s *Server) routes() {
	type route struct {
		method, path string
		h            http.HandlerFunc
	}
	table := []route{
		{"GET", "/v1/healthz", s.handleHealthz},
		{"GET", "/v1/stats", s.handleStats},
		{"GET", "/v1/capacity", getTask(s, tasks.CapacityRequest{}, tasks.NewCapacityTask)},
		{"GET", "/v1/operating-point", getTask(s, tasks.OperatingPointRequest{}, tasks.NewOperatingPointTask)},
		{"GET", "/v1/overhead", s.handleOverhead},
		// GET /v1/dvfs defaults to a 20k-instruction scale per workload
		// (the request struct's zero means the reference budgets).
		{"GET", "/v1/dvfs", getTask(s, tasks.DVFSExploreRequest{Scale: 20_000}, tasks.NewDVFSExploreTask)},
		{"GET", "/v1/fleet", getTask(s, tasks.FleetRequest{}, tasks.NewFleetTask)},
		{"POST", "/v1/fleet", s.handleFleetPost},
		{"POST", "/v1/sim", s.handleSim},
		{"POST", "/v1/query", s.handleQuery},
		{"POST", "/v1/batch", s.handleBatch},
		{"POST", "/v1/sweeps", s.handleSweepPost},
		{"GET", "/v1/sweeps", s.handleSweepList},
		{"GET", "/v1/sweeps/{id}", s.handleSweepGet},
		{"GET", "/v1/sweeps/{id}/rows", s.handleSweepRows},
		{"GET", "/v1/sweeps/{id}/stream", s.handleSweepStream},
	}
	allowed := map[string][]string{}
	for _, r := range table {
		s.mux.HandleFunc(r.method+" "+r.path, r.h)
		allowed[r.path] = append(allowed[r.path], r.method)
	}
	for path, methods := range allowed {
		allow := strings.Join(methods, ", ")
		s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed on %s (allow: %s)",
				r.Method, r.URL.Path, allow)
		})
	}
}

// withTraffic wraps the router with the per-client rate limiter.
// Liveness probes are exempt — an orchestrator must always be able to
// ask "are you up" — and everything else spends one token per request,
// streaming connections included.
func (s *Server) withTraffic(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil && r.URL.Path != "/v1/healthz" {
			if ok, retryAfter := s.limiter.Allow(clientKey(r)); !ok {
				s.rateLimited.Add(1)
				secs := retryAfterSeconds(retryAfter)
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeError(w, http.StatusTooManyRequests, "rate_limited", map[string]any{
					"retry_after_seconds": secs,
					"limit_per_second":    s.limiter.Rate(),
					"burst":               s.limiter.Burst(),
				}, "rate limit exceeded: %g requests/s per client (burst %g)", s.limiter.Rate(), s.limiter.Burst())
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the requester for rate limiting: the X-API-Key
// header when present (so keyed clients are limited per key wherever
// they connect from), else the remote IP.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "ip:" + r.RemoteAddr
	}
	return "ip:" + host
}

// retryAfterSeconds rounds a wait up to whole seconds, at least 1 —
// the granularity the Retry-After header speaks.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Handler returns the routed HTTP handler, wrapped with the traffic
// layers (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Jobs exposes the job manager (for embedding and tests).
func (s *Server) Jobs() *Manager { return s.jobs }

// Engine exposes the compute engine (for embedding and tests).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Drain stops accepting jobs and waits for in-flight ones, bounded by the
// configured drain timeout.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.Drain(ctx) }

// Close cancels whatever is still running; checkpoints keep it resumable.
func (s *Server) Close() { s.jobs.Close() }

// Serve runs the service at cfg.Addr until ctx is cancelled, then shuts
// down gracefully: stop listening, drain in-flight jobs up to
// cfg.DrainTimeout, cancel the rest (their checkpoints keep them
// resumable).
func Serve(ctx context.Context, cfg Config) error {
	cfg = cfg.WithDefaults()
	s, err := New(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(shCtx)
	if derr := s.Drain(shCtx); derr != nil && err == nil {
		err = derr
	}
	s.Close()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ---- Error envelope and JSON helpers ----

// apiError is the one versioned error shape every /v1 route emits:
// a stable machine-readable code, a human message, and optional
// structured details (e.g. the retry budget on 429/503).
type apiError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// Stable error codes. Every handler reports failures through these —
// clients branch on the code, never on message text.
const (
	ErrCodeInvalidRequest   = "invalid_request"
	ErrCodeNotFound         = "not_found"
	ErrCodeMethodNotAllowed = "method_not_allowed"
	ErrCodeRateLimited      = "rate_limited"
	ErrCodeOverloaded       = "overloaded" // shed by admission control; retry later
	ErrCodeDraining         = "draining"   // shutting down; retry against a peer
	ErrCodeUnavailable      = "unavailable"
	ErrCodeInternal         = "internal"
)

// writeError is the single emitter of the error envelope: every error
// response on every /v1 route funnels through it, so the shape can
// never drift per handler.
func writeError(w http.ResponseWriter, status int, code string, details map[string]any, format string, args ...any) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = fmt.Sprintf(format, args...)
	env.Error.Details = details
	writeJSON(w, status, env)
}

// writeErr is writeError with the code derived from the status — the
// common case for handlers without structured details.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeError(w, status, codeForStatus(status), nil, format, args...)
}

// codeForStatus maps an HTTP status onto its default envelope code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return ErrCodeInvalidRequest
	case http.StatusNotFound:
		return ErrCodeNotFound
	case http.StatusMethodNotAllowed:
		return ErrCodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return ErrCodeRateLimited
	case http.StatusServiceUnavailable:
		return ErrCodeUnavailable
	default:
		return ErrCodeInternal
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding response"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// ---- Pool-routed execution ----

// shed503 answers a request rejected by admission control: 503 with a
// Retry-After hint and the overloaded/draining code, so well-behaved
// clients back off instead of hammering a saturated pool.
func (s *Server) shed503(w http.ResponseWriter, code string, details map[string]any, format string, args ...any) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, code, details, format, args...)
}

// submitWait runs work on the pool's given tier and waits for it — or
// for the request context. The work's context is the request context
// capped by the pool's lifetime, so a disconnected client cancels its
// compute and a closing pool cancels every request.
func (s *Server) submitWait(ctx context.Context, tier engine.Tier, work func(context.Context)) error {
	done := make(chan struct{})
	err := s.jobs.Pool().SubmitTier(tier, func(poolCtx context.Context) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(poolCtx, cancel)
		defer stop()
		work(runCtx)
		close(done)
	})
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// serveTask is the tail of the interactive handlers: a constructor
// error or an admit rejection answers 400, anything else runs on the
// pool's interactive tier.
func (s *Server) serveTask(w http.ResponseWriter, r *http.Request, t engine.Task, err error) {
	if err == nil {
		err = s.admit(t)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	s.runTaskTier(w, r, t, engine.TierInteractive)
}

// runTaskTier executes one admitted task on the given pool tier through
// the engine and writes its stored bytes, with X-Cache reporting which
// tier answered ("miss" = computed now, "hit" = memory, "disk" = the
// on-disk store, e.g. after a restart, "inflight" = deduplicated onto a
// concurrent identical request). Task errors are never cached;
// bad-input errors answer 400, internal encode failures 500, the
// requester's own cancellation 503, and a full queue is shed with 503 +
// Retry-After. The query endpoint routes checkpoint-backed (cheap)
// queries interactively and sweep-computing ones onto the batch tier
// behind the sweep jobs.
func (s *Server) runTaskTier(w http.ResponseWriter, r *http.Request, t engine.Task, tier engine.Tier) {
	queue := "interactive"
	if tier == engine.TierBatch {
		queue = "batch"
	}
	var (
		res engine.Result
		err error
	)
	serr := s.submitWait(r.Context(), tier, func(ctx context.Context) {
		res, err = s.eng.Do(ctx, t)
	})
	if s.submitFailed(w, serr, queue, "shortly") {
		return
	}
	switch {
	case errors.Is(err, engine.ErrEncoding):
		writeErr(w, http.StatusInternalServerError, "%s", err)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusServiceUnavailable, "%s", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	w.Header().Set("X-Cache", string(res.Source))
	w.Header().Set("Content-Type", "application/json")
	// Two writes, not an append: the stored bytes are shared across
	// concurrent requests and appending could scribble a newline into
	// another handler's in-flight response.
	w.Write(res.Bytes)
	w.Write([]byte{'\n'})
}

// submitFailed answers the 503 for work the pool would not take and
// reports whether serr was such a refusal: a full queue is shed naming
// it (with when to retry), a draining pool sends the client to another
// node.
func (s *Server) submitFailed(w http.ResponseWriter, serr error, queue, retry string) bool {
	switch {
	case serr == nil:
		return false
	case errors.Is(serr, engine.ErrPoolFull):
		s.shed503(w, ErrCodeOverloaded, map[string]any{"queue": queue},
			"%s queue full; retry %s", queue, retry)
	case errors.Is(serr, engine.ErrPoolDraining):
		s.shed503(w, ErrCodeDraining, nil, "shutting down; retry against another node")
	default:
		writeErr(w, http.StatusServiceUnavailable, "%s", serr)
	}
	return true
}

// shedBatch is the batch tier's admission gate: once the batch backlog
// reaches the shed watermark it answers 503 for new batch-shaped work,
// naming the saturated queue as what, and reports that it did.
func (s *Server) shedBatch(w http.ResponseWriter, what string) bool {
	backlog := s.jobs.BatchBacklog()
	if backlog < int64(s.cfg.ShedWatermark) {
		return false
	}
	s.shed503(w, ErrCodeOverloaded, map[string]any{
		"batch_backlog": backlog, "watermark": s.cfg.ShedWatermark,
	}, "%s saturated (%d queued >= watermark %d); retry later", what, backlog, s.cfg.ShedWatermark)
	return true
}

// ---- Sync endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the /v1/stats response: the running build, the engine's
// per-kind counters, the memory tier's aggregate view, the pool and
// traffic-hardening counters and the job counters.
type Stats struct {
	Version string                      `json:"version"`
	Cache   CacheStats                  `json:"cache"`
	Engine  map[string]engine.KindStats `json:"engine"`
	Pool    engine.PoolStats            `json:"pool"`
	Traffic TrafficStats                `json:"traffic"`
	Limit   *limit.Stats                `json:"rate_limit,omitempty"`
	Jobs    JobStats                    `json:"jobs"`
}

// TrafficStats counts requests rejected by the hardening layers.
type TrafficStats struct {
	RateLimited uint64 `json:"rate_limited"` // answered 429
	Shed        uint64 `json:"shed"`         // answered 503 by admission control
}

// CacheStats is the memory tier's aggregate counters.
type CacheStats = engine.CacheStats

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Version: buildinfo.String(),
		Cache:   s.eng.MemStats(),
		Engine:  s.eng.Stats(),
		Pool:    s.jobs.Pool().Stats(),
		Traffic: TrafficStats{RateLimited: s.rateLimited.Load(), Shed: s.shed.Load()},
		Jobs:    s.jobs.stats(),
	}
	if s.limiter != nil {
		ls := s.limiter.Stats()
		st.Limit = &ls
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleOverhead(w http.ResponseWriter, r *http.Request) {
	s.serveTask(w, r, tasks.OverheadTask{}, nil)
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	t, err := tasks.NewSimTask(req)
	s.serveTask(w, r, t, err)
}

// ---- Batch endpoint ----

// BatchRequest is the POST /v1/batch body: a heterogeneous list of task
// requests executed through the engine with shared deduplication.
type BatchRequest struct {
	Requests []engine.BatchItem `json:"requests"`
}

// BatchResponse answers the items in request order; per-item failures
// carry an error string instead of a value and never fail the batch.
type BatchResponse struct {
	Results []engine.BatchResult `json:"results"`
}

// handleBatch runs the request on the pool's batch tier: it queues
// behind sweep jobs rather than crowd out interactive endpoints, and
// admission control sheds it outright once the batch backlog crosses
// the watermark.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	if len(req.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatchItems {
		writeErr(w, http.StatusBadRequest, "batch has %d requests, limit %d",
			len(req.Requests), s.cfg.MaxBatchItems)
		return
	}
	if s.shedBatch(w, "batch tier") {
		return
	}
	// Each item passes the same admit gate as its sync endpoint before
	// any simulation runs; a rejected item's error lands in its own
	// slot, so one oversized request cannot fail its siblings.
	var results []engine.BatchResult
	serr := s.submitWait(r.Context(), engine.TierBatch, func(ctx context.Context) {
		results = engine.RunBatchFiltered(ctx, s.eng, req.Requests, 0, s.admit)
	})
	if s.submitFailed(w, serr, "batch", "later") {
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// ---- Async sweep endpoints ----

// SweepAccepted is the POST /v1/sweeps response.
type SweepAccepted struct {
	Job    JobSnapshot `json:"job"`
	Cached bool        `json:"cached"` // an identical spec was already known
}

func (s *Server) handleSweepPost(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	t, err := tasks.NewSweepRunTask(req)
	if err == nil {
		err = s.admit(t)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	spec := t.Spec
	// Admission control: shed NEW work once the batch backlog crosses
	// the watermark. A spec the manager already knows still answers —
	// the dedup hit costs nothing and may well be the client retrying
	// exactly as the earlier 503 told it to.
	if _, known := s.jobs.Get(spec.CanonicalHash()); !known && s.shedBatch(w, "sweep queue") {
		return
	}
	snap, cached, err := s.jobs.Enqueue(spec)
	switch {
	case errors.Is(err, errDraining):
		s.shed503(w, ErrCodeDraining, nil, "%s", err)
		return
	case errors.Is(err, errQueueFull):
		s.shed503(w, ErrCodeOverloaded, nil, "%s", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%s", err)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, SweepAccepted{Job: snap, Cached: cached})
}

// SweepList is the GET /v1/sweeps payload: one page of the job table,
// newest first, with the paging echoed back.
type SweepList struct {
	Jobs   []JobSnapshot `json:"jobs"`
	Total  int           `json:"total"`
	Offset int           `json:"offset"`
	Limit  int           `json:"limit,omitempty"` // 0 = unlimited
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	p, err := bindPage(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	all := s.jobs.List()
	lo, hi := p.window(len(all))
	jobs := append([]JobSnapshot{}, all[lo:hi]...) // an empty page is [], never null
	w.Header().Set("X-Total-Count", strconv.Itoa(len(all)))
	writeJSON(w, http.StatusOK, SweepList{Jobs: jobs, Total: len(all), Offset: p.Offset, Limit: p.Limit})
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// maxBodyBytes bounds every JSON request body (the header limits from
// Config do not cover bodies): generous for real sweep specs and
// batches, small enough that an unauthenticated POST cannot buffer
// arbitrary memory before validation rejects it.
const maxBodyBytes = 8 << 20

// decodeBody strictly parses a size-capped JSON request body: one JSON
// value with no unknown fields, followed by nothing but whitespace.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// Token, not More: More reports false on a stray ']' or '}'.
	switch _, err := dec.Token(); {
	case err == nil:
		return errors.New("bad request body: data after the JSON value")
	case err != io.EOF:
		return fmt.Errorf("bad request body: after the JSON value: %w", err)
	}
	return nil
}
