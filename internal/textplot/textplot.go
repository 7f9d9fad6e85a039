// Package textplot renders series and bar charts as plain text so the cmd
// tools can show the paper's figures directly in a terminal.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Options configures a plot's canvas.
type Options struct {
	Width  int // plot columns (default 72)
	Height int // plot rows (default 20)
	YLabel string
	XLabel string
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	return o
}

// Line renders one or more (x, y) series on a shared canvas. Each series is
// drawn with its own glyph and listed in a legend. Series with mismatched
// x/y lengths are skipped.
func Line(opt Options, series ...XY) string {
	opt = opt.withDefaults()
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			continue
		}
		any = true
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if !any {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	canvas := make([][]byte, opt.Height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			continue
		}
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			c := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(opt.Width-1)))
			r := opt.Height - 1 - int(math.Round((s.Y[i]-minY)/(maxY-minY)*float64(opt.Height-1)))
			if r >= 0 && r < opt.Height && c >= 0 && c < opt.Width {
				canvas[r][c] = g
			}
		}
	}

	var b strings.Builder
	if opt.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opt.YLabel)
	}
	for r, row := range canvas {
		yVal := maxY - (maxY-minY)*float64(r)/float64(opt.Height-1)
		fmt.Fprintf(&b, "%10.4g |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", opt.Width))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", opt.Width/2, minX, opt.Width-opt.Width/2, maxX)
	if opt.XLabel != "" {
		fmt.Fprintf(&b, "%10s  %s\n", "", center(opt.XLabel, opt.Width))
	}
	for si, s := range series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Label)
	}
	return b.String()
}

// XY is a labelled series for Line.
type XY struct {
	Label string
	X, Y  []float64
}

// GroupedBar renders one row per label with several named series, the shape
// of the paper's per-benchmark figures (Figs. 8-12). Values are expected in
// [0, ~1.1] (normalized performance); the scale covers [lo, hi].
func GroupedBar(opt Options, rowLabels []string, seriesNames []string, values [][]float64, lo, hi float64) string {
	opt = opt.withDefaults()
	if len(rowLabels) != len(values) || len(rowLabels) == 0 || hi <= lo {
		return "(no data)\n"
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	maxLabel := 0
	for _, l := range rowLabels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	var b strings.Builder
	for r, row := range values {
		line := []byte(strings.Repeat(".", opt.Width))
		for s, v := range row {
			if s >= len(seriesNames) {
				break
			}
			pos := int(math.Round((v - lo) / (hi - lo) * float64(opt.Width-1)))
			if pos < 0 {
				pos = 0
			}
			if pos >= opt.Width {
				pos = opt.Width - 1
			}
			line[pos] = glyphs[s%len(glyphs)]
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", maxLabel, rowLabels[r], string(line))
	}
	fmt.Fprintf(&b, "%-*s  %-*.2f%*.2f\n", maxLabel, "", opt.Width/2, lo, opt.Width-opt.Width/2, hi)
	for s, name := range seriesNames {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[s%len(glyphs)], name)
	}
	return b.String()
}

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	pad := (width - len(s)) / 2
	return strings.Repeat(" ", pad) + s
}
