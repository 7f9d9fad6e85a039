// Package experiments contains one driver per table and figure of the
// paper's evaluation. The analytic figures (1, 3-7, Table I) come straight
// from the probability and overhead models; the simulation figures (8-12)
// run the full system Monte Carlo over random fault maps.
package experiments

import (
	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/prob"
)

// ReferenceGeometry is the 32 KB 8-way 64 B/block cache used throughout
// the paper's analysis.
func ReferenceGeometry() geom.Geometry { return geom.MustNew(32*1024, 8, 64) }

// Fig1 samples the two voltage-scaling curves of Fig. 1: (a) classic DVS
// that stops at Vcc-min and (b) DVS extended below Vcc-min.
func Fig1(n int) (classic, below []power.Point) {
	m := power.Default()
	return m.CurveClassic(n), m.CurveBelowVccMin(n)
}

// Fig3 returns the mean fraction of faulty blocks versus pfail (Eq. 2) for
// the reference geometry, over pfail in [0, 0.010] like the paper's x-axis.
func Fig3(points int) prob.Series {
	k := ReferenceGeometry().CellsPerBlock()
	return prob.Sweep("faulty blocks (Eq.2)", 0, 0.010, points, func(pf float64) float64 {
		return prob.MeanFaultyBlockFraction(k, pf)
	})
}

// Fig4 returns the probability distribution of cache capacity at
// pfail = 0.001 (Eq. 3): x values are capacity fractions, y values their
// probabilities.
func Fig4() prob.Series {
	g := ReferenceGeometry()
	pmf := prob.CapacityPMF(g.Blocks(), g.CellsPerBlock(), 0.001)
	s := prob.Series{Label: "capacity distribution (Eq.3, pfail=0.001)"}
	for x, p := range pmf {
		s.X = append(s.X, float64(x)/float64(g.Blocks()))
		s.Y = append(s.Y, p)
	}
	return s
}

// Fig5 returns the word-disable whole-cache-failure probability versus
// pfail (Eqs. 4-5, corrected sign) over [0, 0.002] like the paper.
func Fig5(points int) prob.Series {
	g := ReferenceGeometry()
	return prob.Sweep("whole-cache failure (Eq.4)", 0, 0.002, points, func(pf float64) float64 {
		return prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pf)
	})
}

// Fig6 returns block-disabling capacity versus pfail for 32, 64 and 128
// byte blocks at constant cache size and associativity.
func Fig6(points int) []prob.Series {
	sizes := []int{32, 64, 128}
	out := make([]prob.Series, 0, len(sizes))
	for _, bs := range sizes {
		g := geom.MustNew(32*1024, 8, bs)
		k := g.CellsPerBlock()
		label := map[int]string{32: "32 byte", 64: "64 byte", 128: "128 byte"}[bs]
		out = append(out, prob.Sweep(label, 0, 0.005, points, func(pf float64) float64 {
			return prob.ExpectedCapacity(k, pf)
		}))
	}
	return out
}

// Fig7 returns the incremental word-disabling capacity versus pfail
// (Eq. 6) over [0, 0.010].
func Fig7(points int) prob.Series {
	g := ReferenceGeometry()
	return prob.Sweep("incremental word-disable capacity (Eq.6)", 0, 0.010, points, func(pf float64) float64 {
		return prob.IncrementalWDCapacity(g.DataBits(), 8, 32, pf)
	})
}

// FigGranularity (extension) applies the Section IV methodology to the
// related work's coarser disabling units: expected capacity versus pfail
// when disabling blocks, whole sets, or whole ways.
func FigGranularity(points int) []prob.Series {
	g := ReferenceGeometry()
	out := make([]prob.Series, 0, 3)
	for _, gran := range []prob.Granularity{prob.GranularityBlock, prob.GranularitySet, prob.GranularityWay} {
		gran := gran
		out = append(out, prob.Sweep(gran.String()+" disabling", 0, 0.002, points, func(pf float64) float64 {
			return prob.GranularityCapacity(g, gran, pf)
		}))
	}
	return out
}

// FigBitFix (extension) compares the whole-cache-failure probability of
// word-disabling (Eq. 4) against bit-fix with one repair per 16-bit group,
// quantifying Section II's observation that bit-fix suits lower cache
// levels: at L1-relevant pfail it is orders of magnitude more fragile.
func FigBitFix(points int) []prob.Series {
	g := ReferenceGeometry()
	wd := prob.Sweep("word-disable failure", 0, 0.002, points, func(pf float64) float64 {
		return prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pf)
	})
	bf := prob.Sweep("bit-fix failure", 0, 0.002, points, func(pf float64) float64 {
		return prob.BitFixWholeCacheFailProb(g.Blocks(), g.DataBits(), 8, 1, pf)
	})
	return []prob.Series{wd, bf}
}

// FigCluster (extension; the paper's future work) compares block-disable
// capacity under uniform and clustered fault placement at equal fault
// rates, analytically for clusters falling entirely within one block:
// clusters of size s reduce the effective number of independent faulty
// units by ~s, so capacity improves. Monte Carlo confirmation lives in the
// faults package tests; this returns the analytic approximation.
func FigCluster(points int, clusterSize int) []prob.Series {
	g := ReferenceGeometry()
	k := g.CellsPerBlock()
	uniform := prob.Sweep("uniform faults", 0, 0.005, points, func(pf float64) float64 {
		return prob.ExpectedCapacity(k, pf)
	})
	clustered := prob.Sweep("clustered faults", 0, 0.005, points, func(pf float64) float64 {
		// Cluster centers arrive at rate pf/s; a block is faulty if any
		// center lands in it or in the s-1 cells before its start.
		return prob.ExpectedCapacity(k, pf/float64(clusterSize))
	})
	return []prob.Series{uniform, clustered}
}
