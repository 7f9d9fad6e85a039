package main

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vccmin/internal/loadgen"
)

func parseArgs(t *testing.T, args string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("vccmin-loadgen", flag.ContinueOnError)
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
	want := []string{"api-key", "base", "bench-out", "json", "mix", "rate", "requests", "seed",
		"self", "self-rate-limit", "self-shed-watermark", "timeout", "version"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	for name, def := range map[string]string{"rate": "100", "requests": "1000", "seed": "1", "timeout": "30s"} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
}

// TestOptionsFromFlags holds the recorded invocations to the
// loadgen.Config (after Run's defaulting, Mix aside: -mix builds it)
// and the command-only options the hand-declared flags built; the
// defaults below are the ones those flags declared.
func TestOptionsFromFlags(t *testing.T) {
	hand := options{cfg: loadgen.Config{Rate: 100, Requests: 1000, Seed: 1, Timeout: 30 * time.Second}}
	for _, tc := range []struct {
		args string
		set  func(*options)
	}{
		{"", func(*options) {}},
		{"-base http://127.0.0.1:8780 -rate 200 -requests 2000", func(o *options) {
			o.cfg.BaseURL, o.cfg.Rate, o.cfg.Requests = "http://127.0.0.1:8780", 200, 2000
		}},
		{"-self -rate 300 -requests 1500 -bench-out loadgen.txt", func(o *options) {
			o.self, o.cfg.Rate, o.cfg.Requests, o.benchOut = true, 300, 1500, "loadgen.txt"
		}},
		{"-self -mix capacity=8,fleet=2 -json r.json -self-rate-limit 2.5 -self-shed-watermark 3", func(o *options) {
			o.self, o.mix, o.jsonOut, o.selfRate, o.selfShed = true, "capacity=8,fleet=2", "r.json", 2.5, 3
		}},
		{"-base http://h -seed 0 -timeout 0s -api-key k", func(o *options) {
			o.cfg.BaseURL, o.cfg.Seed, o.cfg.Timeout, o.cfg.APIKey = "http://h", 0, 0, "k"
		}},
		{"-base http://h -seed 9223372036854775807 -timeout 250ms", func(o *options) {
			o.cfg.BaseURL, o.cfg.Seed, o.cfg.Timeout = "http://h", 1<<63-1, 250*time.Millisecond
		}},
	} {
		want := hand
		tc.set(&want)
		got, _ := parseArgs(t, tc.args)
		if g, w := got.cfg.WithDefaults(), want.cfg.WithDefaults(); !reflect.DeepEqual(g, w) {
			t.Errorf("%q: config %+v, want %+v", tc.args, g, w)
		}
		got.cfg, want.cfg, got.version = loadgen.Config{}, loadgen.Config{}, nil
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%q: options %+v, want %+v", tc.args, *got, want)
		}
	}
}

func TestBadFlagValues(t *testing.T) {
	for _, args := range []string{"-rate NaN", "-rate +Inf", "-requests 0x10", "-timeout 30"} {
		fs := flag.NewFlagSet("vccmin-loadgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, strings.Fields(args)); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
}
