// Command vccmin-fleet sweeps a simulated manufactured fleet: every die
// draws its own failure-probability multiplier from a wafer-level
// lognormal distribution (inter-wafer mean × intra-wafer radial
// gradient × die noise) and bisects its minimum operating voltage under
// each fault-tolerance scheme. The output is the fleet's Vcc-min
// distribution, yield-versus-voltage curve and per-wafer summaries —
// or, with -predict, a data-efficient prediction study that estimates
// each sampled die's Vcc-min from K adaptive pass/fail measurements and
// reports error quantiles against ground truth.
//
// The command is a thin adapter over the engine task layer: it
// constructs the same fleet-sweep (or vccmin-predict) task the server's
// GET/POST /v1/fleet and POST /v1/batch construct, so the emitted
// document is byte-identical (modulo -pretty whitespace) to the
// server's for the same parameters — and with -result-cache pointed at
// a directory, repeated invocations replay the stored bytes instead of
// re-simulating.
//
// Usage:
//
//	vccmin-fleet                                   # 1000-die fleet, JSON to stdout
//	vccmin-fleet -dies 100000 -schemes block,word  # big fleet, two schemes
//	vccmin-fleet -dies 10000 -wafer-sigma 0.4      # wilder inter-wafer variation
//	vccmin-fleet -include-dies -out fleet.json     # keep the per-die rows
//	vccmin-fleet -predict 6 -sample 256            # Vcc-min prediction study, K=6
//	vccmin-fleet -result-cache ~/.cache/vccmin     # persistent cross-run result reuse
//
// Scheme flags take comma-separated values. Workers only changes
// scheduling: results are bit-identical at any -workers value.
// -cpuprofile and -memprofile write runtime/pprof profiles of the run,
// so a speed campaign starts from data instead of guesses.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// options is the parsed command line: the fleet request plus the flags
// that are not request fields.
type options struct {
	req                         tasks.FleetRequest
	predict, sample             int
	out, cpuprofile, memprofile string
	pretty                      bool
	cacheDir                    *string
	version                     *bool
}

// parseFlags registers the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	cliflag.Bind(fs, &o.req)
	fs.IntVar(&o.predict, "predict", 0, "run a prediction study with this measurement budget K instead of a fleet sweep")
	fs.IntVar(&o.sample, "sample", 0, "prediction study: dies sampled across the fleet (0 = default 128)")
	fs.StringVar(&o.out, "out", "", "output JSON file (empty = stdout)")
	fs.BoolVar(&o.pretty, "pretty", true, "indent the JSON (false emits the server's exact compact bytes)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile (post-GC heap) to this file on exit")
	o.cacheDir = clirun.ResultCacheFlag(fs)
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

// task constructs the fleet sweep or, with -predict, the prediction
// study over the same fleet. A flag the chosen task does not take — a
// fleet-only flag with -predict, -sample without it — is an error that
// names it.
func (o *options) task() (engine.Task, error) {
	switch {
	case o.predict < 0:
		return nil, fmt.Errorf("-predict %d negative", o.predict)
	case o.predict == 0 && o.sample != 0:
		return nil, fmt.Errorf("-sample needs -predict")
	case o.predict == 0:
		t, err := tasks.NewFleetTask(o.req)
		return t, err
	}
	req := tasks.PredictRequest{K: o.predict, Sample: o.sample}
	for _, name := range cliflag.Copy(&req, &o.req) {
		if name != "schemes" {
			return nil, fmt.Errorf("-predict does not take -%s", name)
		}
		if n := len(o.req.Schemes); n > 1 {
			return nil, fmt.Errorf("-predict takes one scheme, got %d", n)
		}
		req.Scheme = o.req.Schemes[0]
	}
	t, err := tasks.NewPredictTask(req)
	return t, err
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	stopProfiles, err := startProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}
	defer stopProfiles()

	eng, err := clirun.NewEngine(*o.cacheDir)
	if err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}
	task, err := o.task()
	if err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}
	res, err := clirun.RunTask(eng, "vccmin-fleet", task)
	if err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}
	if err := clirun.WriteOutput(o.out, res.Bytes, o.pretty); err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}

	if o.predict > 0 {
		var resp tasks.PredictResponse
		if err := res.Decode(&resp); err != nil {
			clirun.Fatal("vccmin-fleet", err)
		}
		fmt.Fprintf(os.Stderr, "predict: %d dies sampled, k=%d, mean |err| %.4g V (p99 %.4g, bound %.4g)\n",
			resp.Sample, resp.K, resp.MeanAbsError, resp.P99, resp.BracketBound)
		return
	}
	var resp tasks.FleetResponse
	if err := res.Decode(&resp); err != nil {
		clirun.Fatal("vccmin-fleet", err)
	}
	for _, sy := range resp.Schemes {
		fmt.Fprintf(os.Stderr, "fleet: %s: %d/%d dies reach the floor, %d fail at nominal, p99 Vcc-min %.4g V\n",
			sy.Scheme, sy.ReachFloor, resp.Dies, sy.FailedAtNominal, sy.P99)
	}
}

// startProfiles arms -cpuprofile/-memprofile and returns the teardown
// main defers: stop the CPU profile, then snapshot the post-GC heap.
// clirun.Fatal exits without running it, so profiles only land for
// successful runs — the ones worth profiling.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintln(os.Stderr, "vccmin-fleet: wrote CPU profile to", cpu)
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vccmin-fleet: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vccmin-fleet: memprofile:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "vccmin-fleet: wrote heap profile to", mem)
		}
	}, nil
}
