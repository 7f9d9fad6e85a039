// Command vccmin-loadgen replays a mixed-traffic workload against the
// vccmin service at a fixed open-loop arrival rate and reports
// per-endpoint latency histograms plus the traffic-hardening outcomes
// (2xx answered, 429 rate-limited, 503 shed). Open loop means arrivals
// never slow down for a struggling server, so saturation — and the
// admission control's response to it — shows up in the numbers instead
// of hiding in client back-pressure.
//
// Point it at a running server, or let it host one in-process:
//
//	vccmin-loadgen -base http://127.0.0.1:8780 -rate 200 -requests 2000
//	vccmin-loadgen -self -rate 300 -requests 1500 -bench-out loadgen.txt
//
// -self starts the full service on a loopback port with a throwaway
// data directory, runs the workload and tears it down — the hermetic
// mode CI uses. -bench-out writes `go test -bench`-format result lines
// that `vccmin-bench -extra` merges into a BENCH_<n>.json snapshot;
// -json writes the full report with histogram buckets.
//
// The endpoint mix defaults to loadgen.DefaultMix (analytics GETs, a
// sim POST, a sweep enqueue, a stats probe); -mix extended adds the
// fleet sweep GET and the columnar query POST, and a
// name=weight[,name=weight...] spec picks and reweights endpoints from
// that extended set, e.g. -mix capacity=8,fleet=2 drops every other
// endpoint and splits traffic 80/20.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/loadgen"
	"vccmin/internal/service"
)

// options is the parsed command line: the load generator's config plus
// the flags that are not config fields.
type options struct {
	cfg               loadgen.Config
	self              bool
	mix               string
	jsonOut, benchOut string
	selfRate          float64
	selfShed          int
	version           *bool
}

// parseFlags registers the command's flags on fs and parses args. The
// config flags default to loadgen.Config.WithDefaults; only the rate
// and request count, which the library requires, are defaulted here.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{cfg: loadgen.Config{Rate: 100, Requests: 1000}.WithDefaults()}
	cliflag.Bind(fs, &o.cfg)
	fs.BoolVar(&o.self, "self", false, "host the service in-process on a loopback port with a throwaway data dir")
	fs.StringVar(&o.mix, "mix", "", "endpoint mix: empty = default, \"extended\" adds fleet+query, or name=weight[,name=weight...] over the extended set (unlisted names drop out)")
	fs.StringVar(&o.jsonOut, "json", "", "write the full JSON report (with histogram buckets) to this file")
	fs.StringVar(&o.benchOut, "bench-out", "", "write go test -bench format result lines to this file (for vccmin-bench -extra)")
	fs.Float64Var(&o.selfRate, "self-rate-limit", 0, "with -self: per-client rate limit of the hosted service (0 disables)")
	fs.IntVar(&o.selfShed, "self-shed-watermark", 0, "with -self: admission watermark of the hosted service (0 = default)")
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "vccmin-loadgen:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := o.cfg
	if o.self == (cfg.BaseURL != "") {
		return fmt.Errorf("exactly one of -base and -self is required")
	}
	if o.self {
		url, shutdown, err := startSelf(o.selfRate, o.selfShed)
		if err != nil {
			return err
		}
		defer shutdown()
		cfg.BaseURL = url
		fmt.Fprintln(os.Stderr, "vccmin-loadgen: self-hosted service at", cfg.BaseURL)
	}

	mix, err := buildMix(o.mix)
	if err != nil {
		return err
	}
	cfg.Mix = mix
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	rep.Summary(os.Stderr)

	if o.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", o.jsonOut)
	}
	if o.benchOut != "" {
		f, err := os.Create(o.benchOut)
		if err != nil {
			return err
		}
		if err := rep.WriteBenchFormat(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", o.benchOut)
	} else {
		rep.WriteBenchFormat(os.Stdout)
	}
	return nil
}

// buildMix resolves the -mix spec: empty keeps DefaultMix (byte-stable
// request streams for existing snapshots), "extended" takes
// loadgen.ExtendedMix wholesale, and a "name=weight,name=weight" spec
// picks and reweights endpoints from the extended universe — so
// `-mix fleet=3,query=2,capacity=5` builds a mix DefaultMix never
// carried. Listed endpoints get the given weight, unlisted drop out.
func buildMix(spec string) ([]loadgen.Endpoint, error) {
	if spec == "" {
		return loadgen.DefaultMix(), nil
	}
	mix := loadgen.ExtendedMix()
	if spec == "extended" {
		return mix, nil
	}
	weights := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -mix weight in %q", part)
		}
		weights[name] = w
	}
	var out []loadgen.Endpoint
	for _, e := range mix {
		if w, ok := weights[e.Name]; ok {
			e.Weight = w
			out = append(out, e)
			delete(weights, e.Name)
		}
	}
	for name := range weights {
		return nil, fmt.Errorf("unknown -mix endpoint %q (known: %s)", name, mixNames(mix))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix selected no endpoints")
	}
	return out, nil
}

func mixNames(mix []loadgen.Endpoint) string {
	names := make([]string, len(mix))
	for i, e := range mix {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// startSelf hosts the full service on a loopback port over a throwaway
// data directory and returns its base URL plus a teardown.
func startSelf(rateLimit float64, shedWatermark int) (string, func(), error) {
	dir, err := os.MkdirTemp("", "vccmin-loadgen-*")
	if err != nil {
		return "", nil, err
	}
	srv, err := service.New(service.Config{
		DataDir:       dir,
		RateLimit:     rateLimit,
		ShedWatermark: shedWatermark,
	})
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
