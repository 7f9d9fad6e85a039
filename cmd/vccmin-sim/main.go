// Command vccmin-sim runs the paper's simulation experiments and prints
// Figs. 8-12: per-benchmark normalized performance of word-disabling and
// block-disabling (with and without victim caches) below and above
// Vcc-min.
//
// Usage:
//
//	vccmin-sim                      # all five figures, default scale
//	vccmin-sim -fig 8               # one figure
//	vccmin-sim -pairs 50 -instructions 1000000   # paper-scale Monte Carlo
//	vccmin-sim -benchmarks crafty,gzip,mcf
//
// Single-run mode constructs the same sim task the server's POST
// /v1/sim constructs and prints its JSON document — byte-identical
// (modulo -pretty whitespace) across CLI, server and batch, and
// replayable from a shared -result-cache directory:
//
//	vccmin-sim -benchmark crafty -scheme block -pfail 1e-3
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vccmin/internal/cliflag"
	"vccmin/internal/clirun"
	"vccmin/internal/experiments"
	"vccmin/internal/tasks"
	"vccmin/internal/textplot"
)

// options is the parsed command line: the single-run sim request, whose
// pfail, seed and instructions figure mode reads too, plus the flags
// that are not request fields.
type options struct {
	req          tasks.SimRequest
	fig          string
	benchmarks   string
	pairs        int
	plot, pretty bool
	cacheDir     *string
	version      *bool
}

// parseFlags registers the command's flags on fs and parses args. The
// request starts from the command's defaults rather than from zero,
// because the sim task hashes its request verbatim.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{req: tasks.SimRequest{Mode: "low", Pfail: 0.001, Seed: 1, Instructions: 200_000}}
	cliflag.Bind(fs, &o.req)
	fs.StringVar(&o.fig, "fig", "", "figure to run (8, 9, 10, 11, 12); empty = all")
	fs.StringVar(&o.benchmarks, "benchmarks", "", "comma-separated benchmark subset; empty = all 26")
	fs.IntVar(&o.pairs, "pairs", 50, "random fault-map pairs per block-disable configuration")
	fs.BoolVar(&o.plot, "plot", true, "render terminal plots in addition to tables")
	fs.BoolVar(&o.pretty, "pretty", true, "single-run mode: indent the JSON")
	o.cacheDir = clirun.ResultCacheFlag(fs)
	o.version = clirun.VersionFlag(fs)
	return o, fs.Parse(args)
}

// simParams is figure mode's experiment configuration.
func (o *options) simParams() experiments.SimParams {
	p := experiments.DefaultSimParams()
	p.FaultPairs = o.pairs
	p.Instructions = o.req.Instructions
	p.Pfail = o.req.Pfail
	p.BaseSeed = o.req.Seed
	if b := cliflag.Split(o.benchmarks); len(b) > 0 {
		p.Benchmarks = b
	}
	return p
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a parse error
	if clirun.HandleVersion(o.version) {
		return
	}

	if o.req.Benchmark != "" {
		runSingle(o.req, *o.cacheDir, o.pretty)
		return
	}

	p := o.simParams()
	want := map[string]bool{}
	if o.fig == "" {
		for _, f := range []string{"8", "9", "10", "11", "12"} {
			want[f] = true
		}
	} else {
		want[o.fig] = true
	}

	if want["8"] || want["9"] || want["10"] {
		start := time.Now()
		lv, err := experiments.RunLowVoltage(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "low-voltage experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("low-voltage Monte Carlo: %d benchmarks x %d pairs x %d instructions in %v\n",
			len(p.Benchmarks), p.FaultPairs, p.Instructions, time.Since(start).Round(time.Millisecond))
		if lv.WordDisableUnfit > 0 {
			fmt.Printf("note: %d/%d fault pairs would make a word-disabled cache unusable (whole-cache failure)\n",
				lv.WordDisableUnfit, p.FaultPairs)
		}
		if want["8"] {
			printFigure(lv.Fig8(), o.plot)
		}
		if want["9"] {
			printFigure(lv.Fig9(), o.plot)
		}
		if want["10"] {
			printFigure(lv.Fig10(), o.plot)
		}
	}
	if want["11"] || want["12"] {
		hv, err := experiments.RunHighVoltage(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "high-voltage experiments:", err)
			os.Exit(1)
		}
		if want["11"] {
			printFigure(hv.Fig11(), o.plot)
		}
		if want["12"] {
			printFigure(hv.Fig12(), o.plot)
		}
	}
}

// runSingle is the engine-task path: one simulation, the same task
// identity the server computes for POST /v1/sim.
func runSingle(req tasks.SimRequest, cacheDir string, pretty bool) {
	task, err := tasks.NewSimTask(req)
	if err != nil {
		clirun.Fatal("vccmin-sim", err)
	}
	eng, err := clirun.NewEngine(cacheDir)
	if err != nil {
		clirun.Fatal("vccmin-sim", err)
	}
	res, err := clirun.RunTask(eng, "vccmin-sim", task)
	if err != nil {
		clirun.Fatal("vccmin-sim", err)
	}
	if err := clirun.WriteOutput("", res.Bytes, pretty); err != nil {
		clirun.Fatal("vccmin-sim", err)
	}
}

func printFigure(f experiments.Figure, plot bool) {
	fmt.Printf("\n==== %s ====\n\n", f.Title)
	fmt.Printf("%-10s", "benchmark")
	for _, s := range f.Series {
		fmt.Printf(" %26s", s)
	}
	fmt.Println()
	for _, row := range f.Rows {
		fmt.Printf("%-10s", row.Benchmark)
		for _, v := range row.Values {
			fmt.Printf(" %25.1f%%", 100*v)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "AVERAGE")
	for _, v := range f.Averages {
		fmt.Printf(" %25.1f%%", 100*v)
	}
	fmt.Println()
	for i, s := range f.Series {
		fmt.Printf("  average %-30s loss: %.1f%%\n", s+":", 100*(1-f.Averages[i]))
	}

	if plot && len(f.Rows) > 0 {
		labels := make([]string, len(f.Rows))
		values := make([][]float64, len(f.Rows))
		for i, row := range f.Rows {
			labels[i] = row.Benchmark
			values[i] = row.Values
		}
		fmt.Println()
		fmt.Print(textplot.GroupedBar(textplot.Options{Width: 56}, labels, f.Series, values, 0.4, 1.1))
	}
}
