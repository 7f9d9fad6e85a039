package textplot

import (
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	s := XY{Label: "ramp", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}}
	out := Line(Options{Width: 40, Height: 10, XLabel: "x", YLabel: "y"}, s)
	if !strings.Contains(out, "*") {
		t.Error("plot missing data glyphs")
	}
	if !strings.Contains(out, "ramp") {
		t.Error("plot missing legend")
	}
	if !strings.Contains(out, "y") || !strings.Contains(out, "x") {
		t.Error("plot missing axis labels")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 10 {
		t.Errorf("plot has %d lines, want >= height", len(lines))
	}
}

func TestLineMultipleSeries(t *testing.T) {
	a := XY{Label: "a", X: []float64{0, 1}, Y: []float64{0, 1}}
	b := XY{Label: "b", X: []float64{0, 1}, Y: []float64{1, 0}}
	out := Line(Options{}, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("expected two distinct glyphs")
	}
}

func TestLineDegenerate(t *testing.T) {
	if out := Line(Options{}); !strings.Contains(out, "no data") {
		t.Errorf("empty plot = %q", out)
	}
	// Mismatched series skipped, not crashed.
	bad := XY{Label: "bad", X: []float64{1, 2}, Y: []float64{1}}
	if out := Line(Options{}, bad); !strings.Contains(out, "no data") {
		t.Errorf("bad series plot = %q", out)
	}
	// Constant series should not divide by zero.
	flat := XY{Label: "flat", X: []float64{1, 1}, Y: []float64{2, 2}}
	out := Line(Options{}, flat)
	if !strings.Contains(out, "*") {
		t.Error("flat series should still render")
	}
}

func TestGroupedBar(t *testing.T) {
	out := GroupedBar(Options{Width: 30},
		[]string{"bzip", "crafty"},
		[]string{"word", "block"},
		[][]float64{{0.9, 0.95}, {0.7, 0.99}}, 0.4, 1.1)
	if !strings.Contains(out, "bzip") || !strings.Contains(out, "crafty") {
		t.Error("missing row labels")
	}
	if !strings.Contains(out, "word") || !strings.Contains(out, "block") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing glyphs")
	}
	if out := GroupedBar(Options{}, []string{"x"}, nil, nil, 0, 1); !strings.Contains(out, "no data") {
		t.Error("mismatched input should report no data")
	}
	// Out-of-range values clamp instead of panicking.
	out = GroupedBar(Options{Width: 10}, []string{"r"}, []string{"s"}, [][]float64{{99}}, 0, 1)
	if !strings.Contains(out, "*") {
		t.Error("clamped value should still render")
	}
}
