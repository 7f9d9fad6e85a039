package experiments

import (
	"math"
	"testing"

	"vccmin/internal/overhead"
	"vccmin/internal/workload"
)

func smallParams() SimParams {
	return SimParams{
		Benchmarks:   []string{"crafty", "gzip", "swim", "mcf"},
		FaultPairs:   6,
		Pfail:        0.001,
		Instructions: 40_000,
		BaseSeed:     1,
	}
}

func TestFig1Curves(t *testing.T) {
	classic, below := Fig1(100)
	if len(classic) != 101 || len(below) != 101 {
		t.Fatalf("curve lengths %d/%d, want 101", len(classic), len(below))
	}
	// At full frequency both agree; inside the low-voltage zone the
	// below-Vcc-min curve burns less power.
	last := len(classic) - 1
	if classic[last].Power != below[last].Power {
		t.Error("curves must agree at full frequency")
	}
	savings := false
	for i := range classic {
		if below[i].Power < classic[i].Power-1e-9 {
			savings = true
		}
		if below[i].Power > classic[i].Power+1e-9 {
			t.Fatalf("below-Vcc-min curve must never burn more power (f=%v)", below[i].Freq)
		}
	}
	if !savings {
		t.Error("no power savings found in the low-voltage zone")
	}
}

func TestFig3Fig4Fig5Fig7Anchors(t *testing.T) {
	f3 := Fig3(100)
	if err := f3.Check(); err != nil {
		t.Fatal(err)
	}
	// At pfail=0.001 (x index 10) the faulty fraction is ≈42%.
	if got := f3.Y[10]; math.Abs(got-0.416) > 0.02 {
		t.Errorf("Fig3 at pfail=0.001: %v, want ≈0.42", got)
	}
	f4 := Fig4()
	peakX, peakY := 0.0, 0.0
	for i := range f4.X {
		if f4.Y[i] > peakY {
			peakX, peakY = f4.X[i], f4.Y[i]
		}
	}
	if math.Abs(peakX-0.58) > 0.02 {
		t.Errorf("Fig4 peak at capacity %v, want ≈0.58", peakX)
	}
	if peakY < 0.01 || peakY > 0.05 {
		t.Errorf("Fig4 peak probability %v, want ≈0.035 (paper's 3.5%% bin)", peakY)
	}
	f5 := Fig5(100)
	if got := f5.Y[50]; got < 5e-4 || got > 5e-3 { // pfail = 0.001
		t.Errorf("Fig5 at pfail=0.001: %v, want ≈1e-3", got)
	}
	if got := f5.Y[75]; got < 5e-3 || got > 5e-2 { // pfail = 0.0015
		t.Errorf("Fig5 at pfail=0.0015: %v, want ≈1e-2", got)
	}
	f7 := Fig7(100)
	if f7.Y[0] != 1 {
		t.Errorf("Fig7 at pfail=0: %v, want 1", f7.Y[0])
	}
	if got := f7.Y[40]; math.Abs(got-0.5) > 0.03 { // saturation region
		t.Errorf("Fig7 at pfail=0.004: %v, want ≈0.5", got)
	}
}

func TestFig6Ordering(t *testing.T) {
	series := Fig6(50)
	if len(series) != 3 {
		t.Fatalf("Fig6 has %d series, want 3", len(series))
	}
	// 32-byte blocks keep the most capacity at every nonzero pfail.
	for i := 1; i < 51; i++ {
		if !(series[0].Y[i] > series[1].Y[i] && series[1].Y[i] > series[2].Y[i]) {
			t.Fatalf("Fig6 ordering violated at point %d", i)
		}
	}
}

func TestFigCluster(t *testing.T) {
	series := FigCluster(50, 8)
	if len(series) != 2 {
		t.Fatalf("FigCluster returned %d series", len(series))
	}
	// Clustered faults preserve more capacity.
	for i := 1; i < 51; i++ {
		if series[1].Y[i] < series[0].Y[i] {
			t.Fatalf("clustered capacity below uniform at point %d", i)
		}
	}
}

func TestTableIRows(t *testing.T) {
	rows := overhead.TableI()
	if len(rows) != 6 {
		t.Fatalf("TableI has %d rows", len(rows))
	}
	if rows[0].Total != 76800 {
		t.Errorf("baseline total = %d", rows[0].Total)
	}
}

func TestRunLowVoltageShape(t *testing.T) {
	res, err := RunLowVoltage(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks", len(res.Benchmarks))
	}
	for _, b := range res.Benchmarks {
		if b.BaselineIPC <= 0 || b.WordDisableIPC <= 0 {
			t.Fatalf("%s: zero IPCs: %+v", b.Name, b)
		}
		if len(b.BlockDisable) != 6 || len(b.BlockDisableVC) != 6 || len(b.BlockDisableVC6T) != 6 {
			t.Fatalf("%s: wrong fault-pair counts", b.Name)
		}
		for i := range b.BlockDisable {
			if b.BlockDisable[i] <= 0 || b.BlockDisableVC[i] <= 0 || b.BlockDisableVC6T[i] <= 0 {
				t.Fatalf("%s pair %d: zero IPC", b.Name, i)
			}
			// A victim cache never hurts block-disabling in this model.
			if b.BlockDisableVC[i] < b.BlockDisable[i]*0.99 {
				t.Errorf("%s pair %d: V$ hurt: %v vs %v", b.Name, i, b.BlockDisableVC[i], b.BlockDisable[i])
			}
		}
	}

	fig8 := res.Fig8()
	if len(fig8.Rows) != 4 || len(fig8.Averages) != 5 {
		t.Fatalf("Fig8 shape wrong: %d rows %d averages", len(fig8.Rows), len(fig8.Averages))
	}
	// Headline ordering: BD avg beats WD on average; BD+V$ beats both.
	wd, bdAvg, bdVCAvg := fig8.Averages[0], fig8.Averages[1], fig8.Averages[2]
	if !(bdAvg > wd) {
		t.Errorf("Fig8: block-disable avg (%v) should beat word-disable (%v)", bdAvg, wd)
	}
	if !(bdVCAvg > bdAvg) {
		t.Errorf("Fig8: BD+V$ (%v) should beat plain BD (%v)", bdVCAvg, bdAvg)
	}
	// All normalized values in a sane band.
	for _, row := range fig8.Rows {
		for s, v := range row.Values {
			if v <= 0.3 || v > 1.05 {
				t.Errorf("Fig8 %s series %d: normalized %v out of band", row.Benchmark, s, v)
			}
		}
	}
	// Min never exceeds avg.
	for _, row := range fig8.Rows {
		if row.Values[3] > row.Values[1]+1e-12 {
			t.Errorf("Fig8 %s: BD min above avg", row.Benchmark)
		}
		if row.Values[4] > row.Values[2]+1e-12 {
			t.Errorf("Fig8 %s: BD+V$ min above avg", row.Benchmark)
		}
	}

	fig9 := res.Fig9()
	if len(fig9.Series) != 3 {
		t.Fatal("Fig9 series wrong")
	}
	fig10 := res.Fig10()
	// 10T V$ (16 entries) should be at least as good as 6T (8 entries).
	if fig10.Averages[1] < fig10.Averages[2]-0.01 {
		t.Errorf("Fig10: 10T V$ (%v) should be >= 6T V$ (%v)", fig10.Averages[1], fig10.Averages[2])
	}
}

func TestRunHighVoltageShape(t *testing.T) {
	res, err := RunHighVoltage(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	fig11 := res.Fig11()
	for _, row := range fig11.Rows {
		wd, bd := row.Values[0], row.Values[1]
		if bd != 1 {
			t.Errorf("Fig11 %s: block-disable normalized %v, must be exactly 1 (no overhead)", row.Benchmark, bd)
		}
		if wd >= 1 {
			t.Errorf("Fig11 %s: word-disable normalized %v, must be < 1 (alignment network)", row.Benchmark, wd)
		}
	}
	fig12 := res.Fig12()
	for _, row := range fig12.Rows {
		if row.Values[1] != 1 {
			t.Errorf("Fig12 %s: block-disable with V$ vs baseline with V$ should be 1, got %v", row.Benchmark, row.Values[1])
		}
		if row.Values[0] >= 1 {
			t.Errorf("Fig12 %s: word-disable should lose at high voltage", row.Benchmark)
		}
	}
}

func TestRunLowVoltageDeterministic(t *testing.T) {
	p := smallParams()
	p.Benchmarks = []string{"vpr"}
	p.FaultPairs = 3
	p.Instructions = 20_000
	a, err := RunLowVoltage(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLowVoltage(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmarks[0].BaselineIPC != b.Benchmarks[0].BaselineIPC {
		t.Error("baseline IPC not deterministic")
	}
	for i := range a.Benchmarks[0].BlockDisable {
		if a.Benchmarks[0].BlockDisable[i] != b.Benchmarks[0].BlockDisable[i] {
			t.Fatalf("pair %d IPC differs across runs", i)
		}
	}
}

// TestFigureDriversErrorText: a benchmark that cannot be simulated fails
// both drivers with its first job's coordinates, as the figure drivers
// have always reported it, after every earlier benchmark has run.
func TestFigureDriversErrorText(t *testing.T) {
	p := smallParams()
	p.Benchmarks = []string{"crafty", "no-such-benchmark"}
	p.FaultPairs = 2
	p.Instructions = 2000
	_, lookup := workload.ByName("no-such-benchmark")
	if lookup == nil {
		t.Fatal("no-such-benchmark resolved")
	}
	want := "no-such-benchmark baseline/no-victim: " + lookup.Error()
	if _, err := RunLowVoltage(p); err == nil || err.Error() != want {
		t.Errorf("RunLowVoltage error %v, want %q", err, want)
	}
	if _, err := RunHighVoltage(p); err == nil || err.Error() != want {
		t.Errorf("RunHighVoltage error %v, want %q", err, want)
	}
}
