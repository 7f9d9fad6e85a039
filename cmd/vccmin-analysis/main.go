// Command vccmin-analysis regenerates the paper's analytic artifacts:
// Fig. 1 (voltage scaling), Figs. 3-7 (fault-distribution analysis) and
// Table I (transistor overhead), printing numeric series and terminal
// plots.
//
// Usage:
//
//	vccmin-analysis              # everything
//	vccmin-analysis -fig 5       # one figure (1, 3, 4, 5, 6, 7, cluster)
//	vccmin-analysis -table 1     # Table I only
//
// -json switches to the engine-task form: the capacity analysis, the
// operating point and the Table I overheads at -pfail run as one batch
// through the same task types the server's endpoints and POST /v1/batch
// execute, printed as the batch document (byte-identical values to the
// server's, replayable from a shared -result-cache directory):
//
//	vccmin-analysis -json -pfail 1e-3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vccmin/internal/clirun"
	"vccmin/internal/engine"
	"vccmin/internal/experiments"
	"vccmin/internal/power"
	"vccmin/internal/prob"
	"vccmin/internal/tasks"
	"vccmin/internal/textplot"
)

func main() {
	fig := flag.String("fig", "", "figure to print (1, 3, 4, 5, 6, 7, cluster); empty = all")
	table := flag.String("table", "", "table to print (1); empty = all")
	points := flag.Int("points", 100, "samples per analytic curve")
	jsonOut := flag.Bool("json", false, "emit the pfail-point analysis as an engine-task batch document")
	pfail := flag.Float64("pfail", 0.001, "per-cell failure probability for -json mode")
	trials := flag.Int("trials", 0, "-json mode: Monte Carlo cross-check trials on the capacity task")
	pretty := flag.Bool("pretty", true, "-json mode: indent the JSON")
	cacheDir := clirun.ResultCacheFlag(flag.CommandLine)
	version := clirun.VersionFlag(flag.CommandLine)
	flag.Parse()
	if clirun.HandleVersion(version) {
		return
	}

	if *jsonOut {
		if err := printJSONBatch(*pfail, *trials, *cacheDir, *pretty); err != nil {
			fmt.Fprintln(os.Stderr, "vccmin-analysis:", err)
			os.Exit(1)
		}
		return
	}

	all := *fig == "" && *table == ""
	if all || *table == "1" {
		printTableI()
	}
	figs := map[string]func(int){
		"1": printFig1, "3": printFig3, "4": printFig4,
		"5": printFig5, "6": printFig6, "7": printFig7,
		"cluster": printFigCluster, "granularity": printFigGranularity,
		"bitfix": printFigBitFix,
	}
	if all {
		for _, k := range []string{"1", "3", "4", "5", "6", "7", "cluster", "granularity", "bitfix"} {
			figs[k](*points)
		}
		return
	}
	if *fig != "" {
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
		f(*points)
	}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n\n", title)
}

// printJSONBatch runs the pfail-point analysis as one heterogeneous
// batch through the engine — the exact document POST /v1/batch answers
// for the same three requests.
func printJSONBatch(pfail float64, trials int, cacheDir string, pretty bool) error {
	eng, err := clirun.NewEngine(cacheDir)
	if err != nil {
		return err
	}
	capacity, err := json.Marshal(tasks.CapacityRequest{Pfail: &pfail, Trials: trials})
	if err != nil {
		return err
	}
	op, err := json.Marshal(tasks.OperatingPointRequest{Pfail: &pfail})
	if err != nil {
		return err
	}
	results := engine.RunBatch(context.Background(), eng, []engine.BatchItem{
		{Kind: tasks.KindCapacity, Params: capacity},
		{Kind: tasks.KindOperatingPoint, Params: op},
		{Kind: tasks.KindOverhead},
	}, 0, nil)
	for _, r := range results {
		if r.Error != "" {
			return fmt.Errorf("%s: %s", r.Kind, r.Error)
		}
	}
	doc, err := json.Marshal(struct {
		Results []engine.BatchResult `json:"results"`
	}{results})
	if err != nil {
		return err
	}
	return clirun.WriteOutput("", doc, pretty)
}

// printTableI renders the overhead task's rows — the same typed result
// GET /v1/overhead serves.
func printTableI() {
	header("Table I: overhead comparison (transistors)")
	v, err := tasks.OverheadTask{}.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vccmin-analysis:", err)
		os.Exit(1)
	}
	resp := v.(tasks.OverheadResponse)
	fmt.Printf("%-24s %12s %12s %12s %10s %10s\n",
		"Scheme", "Tag", "Disable", "Victim$", "Align.net", "Total")
	for _, r := range resp.Rows {
		align := "no"
		if r.AlignmentNetwork {
			align = "yes"
		}
		fmt.Printf("%-24s %12d %12d %12d %10s %10d\n",
			r.Scheme, r.TagTransistors, r.DisableTransistors, r.VictimTransistors, align, r.Total)
	}
}

func pointsToXY(label string, pts []power.Point, sel func(power.Point) float64) textplot.XY {
	xy := textplot.XY{Label: label}
	for _, p := range pts {
		xy.X = append(xy.X, p.Freq)
		xy.Y = append(xy.Y, sel(p))
	}
	return xy
}

func printFig1(n int) {
	header("Fig. 1a: classic voltage scaling (stops at Vcc-min)")
	classic, below := experiments.Fig1(n)
	opt := textplot.Options{Width: 64, Height: 16, XLabel: "normalized frequency", YLabel: "normalized V / P / perf"}
	fmt.Print(textplot.Line(opt,
		pointsToXY("voltage", classic, func(p power.Point) float64 { return p.Voltage }),
		pointsToXY("power", classic, func(p power.Point) float64 { return p.Power }),
		pointsToXY("performance", classic, func(p power.Point) float64 { return p.Performance }),
	))
	header("Fig. 1b: voltage scaling below Vcc-min")
	fmt.Print(textplot.Line(opt,
		pointsToXY("voltage", below, func(p power.Point) float64 { return p.Voltage }),
		pointsToXY("power", below, func(p power.Point) float64 { return p.Power }),
		pointsToXY("performance", below, func(p power.Point) float64 { return p.Performance }),
	))
	m := power.Default()
	fmt.Printf("zones: cubic above f=%.3f, low-voltage to f=%.3f, linear below\n",
		m.FreqAtVccMin(), m.FreqAtVFloor())
}

func plotSeries(xlabel, ylabel string, series ...prob.Series) {
	xys := make([]textplot.XY, 0, len(series))
	for _, s := range series {
		xys = append(xys, textplot.XY{Label: s.Label, X: s.X, Y: s.Y})
	}
	fmt.Print(textplot.Line(textplot.Options{Width: 64, Height: 16, XLabel: xlabel, YLabel: ylabel}, xys...))
}

func printFig3(n int) {
	header("Fig. 3: fraction of faulty blocks vs pfail (Eq. 2)")
	s := experiments.Fig3(n)
	plotSeries("pfail", "faulty blocks", s)
	for _, pf := range []float64{0.0005, 0.001, 0.0013, 0.002, 0.005, 0.010} {
		fmt.Printf("  pfail=%-7g faulty=%6.1f%%  capacity=%6.1f%%\n",
			pf, 100*at(s, pf), 100*(1-at(s, pf)))
	}
}

func printFig4(n int) {
	header("Fig. 4: capacity distribution at pfail=0.001 (Eq. 3)")
	s := experiments.Fig4()
	plotSeries("capacity", "probability", s)
	mean, std := prob.CapacityMeanStd(512, 537, 0.001)
	fmt.Printf("  mean=%.1f%%  sd=%.2fpp  P[capacity>50%%]=%.4f\n",
		100*mean, 100*std, prob.CapacityAtLeast(512, 537, 0.001, 0.5))
}

func printFig5(n int) {
	header("Fig. 5: word-disable whole-cache failure vs pfail (Eqs. 4-5)")
	s := experiments.Fig5(n)
	plotSeries("pfail", "P[whole cache failure]", s)
	for _, pf := range []float64{0.0005, 0.001, 0.0015, 0.002} {
		fmt.Printf("  pfail=%-7g pwcf=%.2e\n", pf, at(s, pf))
	}
}

func printFig6(n int) {
	header("Fig. 6: capacity vs pfail for 32/64/128B blocks (Eq. 2)")
	series := experiments.Fig6(n)
	plotSeries("pfail", "capacity", series...)
}

func printFig7(n int) {
	header("Fig. 7: incremental word-disabling capacity vs pfail (Eq. 6)")
	s := experiments.Fig7(n)
	plotSeries("pfail", "capacity", s)
}

func printFigCluster(n int) {
	header("Extension: uniform vs clustered faults (paper future work)")
	series := experiments.FigCluster(n, 8)
	plotSeries("pfail", "capacity", series...)
	fmt.Println("  clusters of 8 cells concentrate damage into fewer blocks,")
	fmt.Println("  so block-disabling keeps more capacity than the uniform model predicts.")
}

func printFigGranularity(n int) {
	header("Extension: disabling granularity (block vs set vs way)")
	series := experiments.FigGranularity(n)
	plotSeries("pfail", "capacity", series...)
	fmt.Println("  coarser disabling units collapse exponentially faster — the case for")
	fmt.Println("  block-level disabling over the set/way disabling of the yield literature.")
}

func printFigBitFix(n int) {
	header("Extension: whole-cache failure, word-disable vs bit-fix")
	series := experiments.FigBitFix(n)
	plotSeries("pfail", "P[whole cache failure]", series...)
	for _, pf := range []float64{0.0002, 0.0005, 0.001} {
		fmt.Printf("  pfail=%-7g word-disable=%.2e  bit-fix=%.2e\n", pf, at(series[0], pf), at(series[1], pf))
	}
	fmt.Println("  one-repair-per-group bit-fix is far more fragile at L1-relevant pfail,")
	fmt.Println("  matching the paper's focus on word-disabling as the L1 comparison point.")
}

// at interpolates series s at x.
func at(s prob.Series, x float64) float64 {
	for i := 1; i < s.Len(); i++ {
		if s.X[i] >= x {
			t := (x - s.X[i-1]) / (s.X[i] - s.X[i-1])
			return s.Y[i-1]*(1-t) + s.Y[i]*t
		}
	}
	return s.Y[s.Len()-1]
}
