// Command vccmin-faultmap draws random low-voltage fault maps and reports
// what each disabling scheme would make of them: block-disable capacity
// and per-set associativity, word-disable fitness, and the incremental
// word-disable pair classification.
//
// Usage:
//
//	vccmin-faultmap -pfail 0.001 -seed 42
//	vccmin-faultmap -pfail 0.002 -trials 1000      # Monte Carlo summary
//	vccmin-faultmap -cluster 8                     # clustered fault model
//
// A -pfail that is NaN or outside [0,1], or a -cluster or -trials below
// 1, is refused with exit status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"vccmin/internal/clirun"
	"vccmin/internal/core"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/prob"
	"vccmin/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, draws or loads a map, writes the
// report to stdout and returns the exit status — 0, 1 when a file
// cannot be read or written, 2 for a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vccmin-faultmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 32*1024, "cache size in bytes")
	ways := fs.Int("ways", 8, "associativity")
	block := fs.Int("block", 64, "block size in bytes")
	pfail := fs.Float64("pfail", 0.001, "per-cell failure probability")
	seed := fs.Int64("seed", 1, "random seed")
	trials := fs.Int("trials", 1, "number of maps to draw (summary mode when > 1)")
	cluster := fs.Int("cluster", 1, "fault cluster size in cells (1 = uniform)")
	dump := fs.String("dump", "", "write the drawn map to this file (JSON)")
	load := fs.String("load", "", "inspect a map from this file instead of drawing one")
	version := clirun.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if clirun.HandleVersion(version) {
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "vccmin-faultmap:", err)
		return code
	}
	if err := checkFlags(*pfail, *cluster, *trials); err != nil {
		return fail(2, err)
	}

	g, err := geom.New(*size, *ways, *block)
	if err != nil {
		return fail(2, err)
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		m, err := faults.Read(f)
		if err != nil {
			return fail(1, err)
		}
		report(stdout, m, *pfail)
		return 0
	}
	if *trials == 1 {
		rng := rand.New(rand.NewSource(*seed))
		m := draw(g, *pfail, rng, *cluster)
		if *dump != "" {
			f, err := os.Create(*dump)
			if err != nil {
				return fail(1, err)
			}
			if err := m.Write(f); err != nil {
				f.Close()
				return fail(1, err)
			}
			if err := f.Close(); err != nil {
				return fail(1, err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", *dump)
		}
		report(stdout, m, *pfail)
		return 0
	}
	monteCarlo(stdout, g, *pfail, *seed, *cluster, *trials)
	return 0
}

// checkFlags refuses the values no map can be drawn at: a pfail that is
// NaN or outside [0,1], and a cluster size or trial count below 1.
func checkFlags(pfail float64, cluster, trials int) error {
	switch {
	case !(pfail >= 0 && pfail <= 1):
		return fmt.Errorf("-pfail %v: want a probability in [0,1]", pfail)
	case cluster < 1:
		return fmt.Errorf("-cluster %d below 1", cluster)
	case trials < 1:
		return fmt.Errorf("-trials %d below 1", trials)
	}
	return nil
}

func draw(g geom.Geometry, pfail float64, rng *rand.Rand, cluster int) *faults.Map {
	if cluster > 1 {
		return faults.GenerateClustered(g, 32, faults.ClusterParams{Pfail: pfail, Size: cluster}, rng)
	}
	return faults.Generate(g, 32, pfail, rng)
}

func report(w io.Writer, m *faults.Map, pfail float64) {
	g := m.Geom
	fmt.Fprintln(w, m)

	d := core.BuildBlockDisable(m)
	fmt.Fprintf(w, "\nblock-disable: %d/%d blocks enabled (%.1f%% capacity)\n",
		d.EnabledBlocks(), g.Blocks(), 100*d.CapacityFraction())
	fmt.Fprintf(w, "analytic expectation (Eq. 2): %.1f%%\n",
		100*prob.ExpectedCapacity(g.CellsPerBlock(), pfail))
	fmt.Fprintln(w, "\nenabled-ways histogram (sets x ways):")
	for ways, n := range d.WaysHistogram() {
		if n > 0 {
			fmt.Fprintf(w, "  %d ways: %3d sets\n", ways, n)
		}
	}

	wd := core.EvaluateWordDisable(m, core.ReferenceWordDisable())
	fmt.Fprintf(w, "\nword-disable: fit=%v (failed subblocks: %d/%d)\n",
		wd.Fit, wd.FailedSubblocks, wd.TotalSubblocks)
	if wd.Fit {
		fmt.Fprintf(w, "  low-voltage geometry: %v, +1 cycle latency\n", wd.LowVoltageGeom)
	}

	inc := core.EvaluateIncrementalWD(m, core.ReferenceWordDisable())
	fmt.Fprintf(w, "\nincremental word-disable: %d full / %d half / %d disabled pairs (%.1f%% capacity)\n",
		inc.FullPairs, inc.HalfPairs, inc.DisabledPairs, 100*inc.CapacityFraction())

	bf := core.EvaluateBitFix(m, core.ReferenceBitFix())
	fmt.Fprintf(w, "\n%s\n", bf)
}

func monteCarlo(w io.Writer, g geom.Geometry, pfail float64, seed int64, cluster, trials int) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, 0, trials)
	unfit := 0
	minWays := g.Ways
	for i := 0; i < trials; i++ {
		m := draw(g, pfail, rng, cluster)
		d := core.BuildBlockDisable(m)
		caps = append(caps, d.CapacityFraction())
		if !core.EvaluateWordDisable(m, core.ReferenceWordDisable()).Fit {
			unfit++
		}
		if w := d.MinSetWays(); w < minWays {
			minWays = w
		}
	}
	s := stats.Summarize(caps)
	fmt.Fprintf(w, "%d maps of %v at pfail=%g (cluster=%d)\n", trials, g, pfail, cluster)
	fmt.Fprintf(w, "block-disable capacity: mean=%.1f%% sd=%.2fpp min=%.1f%% max=%.1f%%\n",
		100*s.Mean, 100*s.StdDev, 100*s.Min, 100*s.Max)
	mean, sd := prob.CapacityMeanStd(g.Blocks(), g.CellsPerBlock(), pfail)
	fmt.Fprintf(w, "analytic (Eqs. 2-3):    mean=%.1f%% sd=%.2fpp\n", 100*mean, 100*sd)
	fmt.Fprintf(w, "worst set associativity seen: %d ways\n", minWays)
	fmt.Fprintf(w, "word-disable whole-cache failures: %d/%d (analytic %.2e)\n",
		unfit, trials, prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pfail))
}
