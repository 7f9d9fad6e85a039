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
package main

import (
	"flag"
	"fmt"
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
	size := flag.Int("size", 32*1024, "cache size in bytes")
	ways := flag.Int("ways", 8, "associativity")
	block := flag.Int("block", 64, "block size in bytes")
	pfail := flag.Float64("pfail", 0.001, "per-cell failure probability")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 1, "number of maps to draw (summary mode when > 1)")
	cluster := flag.Int("cluster", 1, "fault cluster size in cells (1 = uniform)")
	dump := flag.String("dump", "", "write the drawn map to this file (JSON)")
	load := flag.String("load", "", "inspect a map from this file instead of drawing one")
	version := clirun.VersionFlag(flag.CommandLine)
	flag.Parse()
	if clirun.HandleVersion(version) {
		return
	}

	g, err := geom.New(*size, *ways, *block)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		m, err := faults.Read(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report(m, *pfail)
		return
	}
	if *trials <= 1 {
		rng := rand.New(rand.NewSource(*seed))
		m := draw(g, *pfail, rng, *cluster)
		if *dump != "" {
			f, err := os.Create(*dump)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := m.Write(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *dump)
		}
		report(m, *pfail)
		return
	}
	monteCarlo(g, *pfail, *seed, *cluster, *trials)
}

func draw(g geom.Geometry, pfail float64, rng *rand.Rand, cluster int) *faults.Map {
	if cluster > 1 {
		return faults.GenerateClustered(g, 32, faults.ClusterParams{Pfail: pfail, Size: cluster}, rng)
	}
	return faults.Generate(g, 32, pfail, rng)
}

func report(m *faults.Map, pfail float64) {
	g := m.Geom
	fmt.Println(m)

	d := core.BuildBlockDisable(m)
	fmt.Printf("\nblock-disable: %d/%d blocks enabled (%.1f%% capacity)\n",
		d.EnabledBlocks(), g.Blocks(), 100*d.CapacityFraction())
	fmt.Printf("analytic expectation (Eq. 2): %.1f%%\n",
		100*prob.ExpectedCapacity(g.CellsPerBlock(), pfail))
	fmt.Println("\nenabled-ways histogram (sets x ways):")
	for w, n := range d.WaysHistogram() {
		if n > 0 {
			fmt.Printf("  %d ways: %3d sets\n", w, n)
		}
	}

	wd := core.EvaluateWordDisable(m, core.ReferenceWordDisable())
	fmt.Printf("\nword-disable: fit=%v (failed subblocks: %d/%d)\n",
		wd.Fit, wd.FailedSubblocks, wd.TotalSubblocks)
	if wd.Fit {
		fmt.Printf("  low-voltage geometry: %v, +1 cycle latency\n", wd.LowVoltageGeom)
	}

	inc := core.EvaluateIncrementalWD(m, core.ReferenceWordDisable())
	fmt.Printf("\nincremental word-disable: %d full / %d half / %d disabled pairs (%.1f%% capacity)\n",
		inc.FullPairs, inc.HalfPairs, inc.DisabledPairs, 100*inc.CapacityFraction())

	bf := core.EvaluateBitFix(m, core.ReferenceBitFix())
	fmt.Printf("\n%s\n", bf)
}

func monteCarlo(g geom.Geometry, pfail float64, seed int64, cluster, trials int) {
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
	fmt.Printf("%d maps of %v at pfail=%g (cluster=%d)\n", trials, g, pfail, cluster)
	fmt.Printf("block-disable capacity: mean=%.1f%% sd=%.2fpp min=%.1f%% max=%.1f%%\n",
		100*s.Mean, 100*s.StdDev, 100*s.Min, 100*s.Max)
	mean, sd := prob.CapacityMeanStd(g.Blocks(), g.CellsPerBlock(), pfail)
	fmt.Printf("analytic (Eqs. 2-3):    mean=%.1f%% sd=%.2fpp\n", 100*mean, 100*sd)
	fmt.Printf("worst set associativity seen: %d ways\n", minWays)
	fmt.Printf("word-disable whole-cache failures: %d/%d (analytic %.2e)\n",
		unfit, trials, prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pfail))
}
