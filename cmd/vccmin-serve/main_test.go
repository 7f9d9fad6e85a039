package main

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vccmin/internal/service"
)

func parseArgs(t *testing.T, args string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, strings.Fields(args))
	if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return o, fs
}

// TestFlagNames pins the command line to the names it had when every
// flag was declared by hand.
func TestFlagNames(t *testing.T) {
	_, fs := parseArgs(t, "")
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	want := []string{"addr", "cache", "data", "drain-timeout", "interactive-workers", "max-batch",
		"max-grid", "max-header-bytes", "pprof", "rate-burst", "rate-limit", "read-header-timeout",
		"shed-watermark", "version", "workers"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	// -h prints the defaults service.Config.WithDefaults sets.
	for name, def := range map[string]string{
		"addr": ":8780", "data": "vccmin-serve-data", "workers": "2", "rate-limit": "50",
		"rate-burst": "", "shed-watermark": "64", "cache": "512", "max-grid": "4096",
		"max-batch": "64", "drain-timeout": "30s", "read-header-timeout": "10s",
		"max-header-bytes": "1048576",
	} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
}

// TestConfigFromFlags holds each argument line to the service.Config
// the hand-declared flags built, after the service's defaulting: the
// defaults below are the ones those flags declared.
func TestConfigFromFlags(t *testing.T) {
	hand := service.Config{
		Addr: ":8780", DataDir: "vccmin-serve-data", Workers: 2, RateLimit: 50,
		ShedWatermark: 64, CacheEntries: 512, MaxGridCells: 4096, MaxBatchItems: 64,
		DrainTimeout: 30 * time.Second, ReadHeaderTimeout: 10 * time.Second, MaxHeaderBytes: 1 << 20,
	}
	for _, tc := range []struct {
		args string
		set  func(*service.Config)
	}{
		{"", func(*service.Config) {}},
		{"-rate-limit 0", func(c *service.Config) { c.RateLimit = 0 }},
		{"-drain-timeout 5s", func(c *service.Config) { c.DrainTimeout = 5 * time.Second }},
		{"-interactive-workers 3", func(c *service.Config) { c.InteractiveWorkers = 3 }},
		{"-data d -max-grid 10", func(c *service.Config) { c.DataDir, c.MaxGridCells = "d", 10 }},
		{"-addr 127.0.0.1:8791 -data serve-data -rate-limit 200", func(c *service.Config) {
			c.Addr, c.DataDir, c.RateLimit = "127.0.0.1:8791", "serve-data", 200
		}},
		{"-rate-limit 2 -rate-burst 2", func(c *service.Config) { c.RateLimit, c.RateBurst = 2, 2 }},
		{"-workers 1 -shed-watermark 1", func(c *service.Config) { c.Workers, c.ShedWatermark = 1, 1 }},
		{"-workers 0 -cache 8 -max-batch 4 -max-header-bytes 4096 -read-header-timeout 1m", func(c *service.Config) {
			c.Workers, c.CacheEntries, c.MaxBatchItems, c.MaxHeaderBytes = 0, 8, 4, 4096
			c.ReadHeaderTimeout = time.Minute
		}},
	} {
		want := hand
		tc.set(&want)
		o, _ := parseArgs(t, tc.args)
		if got, want := o.cfg.WithDefaults(), want.WithDefaults(); got != want {
			t.Errorf("%q: config %+v, want %+v", tc.args, got, want)
		}
	}
}
