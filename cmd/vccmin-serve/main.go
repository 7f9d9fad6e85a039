// Command vccmin-serve runs the repository's HTTP service: the Section IV
// closed-form analysis, Table I overhead, the Fig. 1 operating-point model
// and single simulations as synchronous endpoints, and the parameter-sweep
// engine behind an async job API with checkpoint/resume.
//
// Jobs are deduplicated by the canonical hash of their spec, so POSTing
// the same sweep twice returns the first job, finished or not. Sweep
// checkpoints live under -data; restarting the server against the same
// directory resumes interrupted jobs without recomputing finished cells.
//
// Usage:
//
//	vccmin-serve -addr :8780 -data ./serve-data -workers 2
//
// Traffic hardening is on by default: per-client token-bucket rate
// limiting (-rate-limit, 429 + Retry-After when over; 0 disables) and
// admission control that sheds batch-shaped work with 503 once the
// backlog crosses -shed-watermark, while synchronous endpoints keep
// flowing on their own worker tier (-interactive-workers). Sweep rows
// stream live from GET /v1/sweeps/<id>/stream (SSE with Last-Event-ID
// resume, or ?format=jsonl).
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, in-flight jobs
// drain up to -drain-timeout, and anything still running is checkpointed
// for the next start.
//
// -pprof serves net/http/pprof on its own address and mux — off the
// public listener and outside the rate limiter — so a production
// profile never competes with (or leaks through) the service surface.
//
// Quick check:
//
//	curl 'localhost:8780/v1/capacity?pfail=1e-3'
//	curl -X POST localhost:8780/v1/sweeps -d '{"pfails":[0.001],"schemes":["block"]}'
//	curl -N 'localhost:8780/v1/sweeps/<id>/stream?format=jsonl'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vccmin/internal/buildinfo"
	"vccmin/internal/clirun"
	"vccmin/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8780", "listen address")
		data       = flag.String("data", "vccmin-serve-data", "directory for sweep-job specs, row checkpoints and the engine result store")
		workers    = flag.Int("workers", 2, "concurrently running sweep jobs")
		iworkers   = flag.Int("interactive-workers", 0, "workers reserved for synchronous endpoints (0 = GOMAXPROCS)")
		rateLimit  = flag.Float64("rate-limit", 50, "per-client requests/second budget (0 disables rate limiting)")
		rateBurst  = flag.Float64("rate-burst", 0, "per-client token-bucket depth (0 = 2x rate-limit)")
		watermark  = flag.Int("shed-watermark", 64, "queued batch items beyond which new batch work is shed with 503")
		cache      = flag.Int("cache", 512, "in-memory result-tier entries for synchronous endpoints")
		maxGrid    = flag.Int("max-grid", 4096, "largest accepted sweep grid (cells)")
		maxBatch   = flag.Int("max-batch", 64, "largest accepted POST /v1/batch request (items)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		hdrTimeout = flag.Duration("read-header-timeout", 10*time.Second, "slowloris guard: how long a connection may take to send its header")
		maxHeader  = flag.Int("max-header-bytes", 1<<20, "largest accepted request-header block")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
		version    = clirun.VersionFlag(flag.CommandLine)
	)
	flag.Parse()
	if clirun.HandleVersion(version) {
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	fmt.Fprintf(os.Stderr, "vccmin-serve: %s listening on %s, data in %s\n",
		buildinfo.String(), *addr, *data)
	err := service.Serve(ctx, service.Config{
		Addr:               *addr,
		DataDir:            *data,
		Workers:            *workers,
		InteractiveWorkers: *iworkers,
		RateLimit:          *rateLimit,
		RateBurst:          *rateBurst,
		ShedWatermark:      *watermark,
		CacheEntries:       *cache,
		MaxGridCells:       *maxGrid,
		MaxBatchItems:      *maxBatch,
		DrainTimeout:       *drain,
		ReadHeaderTimeout:  *hdrTimeout,
		MaxHeaderBytes:     *maxHeader,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vccmin-serve:", err)
		os.Exit(1)
	}
}

// servePprof hosts the net/http/pprof handlers on their own mux and
// listener, never the service's: the profiling surface stays off the
// public address, outside the rate limiter, and bindable to loopback
// only.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintln(os.Stderr, "vccmin-serve: pprof on", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "vccmin-serve: pprof:", err)
	}
}
