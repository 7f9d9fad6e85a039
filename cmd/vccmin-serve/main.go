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

	"vccmin/internal/buildinfo"
	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/service"
)

// options is the parsed command line: the service config plus the
// flags that are not config fields.
type options struct {
	cfg     service.Config
	pprof   string
	version *bool
}

// parseFlags registers the command's flags on fs and parses args. Each
// config flag's default is the config's own, so -h prints what
// service.Config.WithDefaults sets; only the rate limit, which the
// library leaves off, is defaulted here.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{cfg: service.Config{RateLimit: 50}.WithDefaults()}
	cliflag.Bind(fs, &o.cfg)
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.pprof != "" {
		go servePprof(o.pprof)
	}

	fmt.Fprintf(os.Stderr, "vccmin-serve: %s listening on %s, data in %s\n",
		buildinfo.String(), o.cfg.Addr, o.cfg.DataDir)
	if err := service.Serve(ctx, o.cfg); err != nil {
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
