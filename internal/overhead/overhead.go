// Package overhead reproduces Table I of the paper: the cell-transistor
// cost of the baseline cache and each disabling scheme, with and without a
// victim cache, for a 32 KB 8-way 64 B/block cache with a 24-bit tag,
// 6-bit index, 6-bit offset and 1 valid bit.
//
// Costs count only the cells the schemes add or harden (tag array, disable
// bits, victim-cache storage), exactly as the paper's table does; the 6T
// data array common to every scheme is omitted. 10T Schmitt-trigger cells
// cost 10 transistors and tolerate low voltage; regular 6T cells cost 6.
package overhead

import (
	"fmt"

	"vccmin/internal/geom"
)

// Transistor counts per SRAM cell type.
const (
	SixT = 6  // regular cell, unreliable below Vcc-min
	TenT = 10 // Schmitt-trigger cell, robust below Vcc-min
)

// Scheme identifies a row of Table I.
type Scheme int

const (
	Baseline Scheme = iota
	BaselineVC
	WordDisable
	BlockDisable
	BlockDisableVC10T
	BlockDisableVC6T
)

var schemeNames = map[Scheme]string{
	Baseline:          "Baseline",
	BaselineVC:        "Baseline+V$",
	WordDisable:       "Word Disabling",
	BlockDisable:      "Block Disabling",
	BlockDisableVC10T: "Block Disabling+V$ 10T",
	BlockDisableVC6T:  "Block Disabling+V$ 6T",
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists the Table I rows in paper order.
func Schemes() []Scheme {
	return []Scheme{Baseline, BaselineVC, WordDisable, BlockDisable, BlockDisableVC10T, BlockDisableVC6T}
}

// Row is one line of Table I: the transistor cost of the scheme-specific
// structures.
type Row struct {
	Scheme             Scheme
	TagTransistors     int  // (tag bits + valid) * blocks, in the scheme's cell type
	DisableTransistors int  // fault mask or disable bits
	VictimTransistors  int  // victim cache storage (tag + entries*blockBits per the paper's accounting)
	AlignmentNetwork   bool // word-disable's shift-mux network
	Total              int
}

// The paper's Table I configuration: the reference L1, a 16-entry
// victim cache and 32-bit words.
var reference = geom.MustNew(32*1024, 8, 64)

const (
	victimEntries = 16
	wordBits      = 32
)

// victimCells reproduces the paper's victim-cache cell accounting:
// (victim tag bits + entries * block data bits). The victim tag covers the
// full block address plus a valid bit (36-6 = 30 tag bits + 1 = 31 for the
// reference geometry). Note the paper's printed formula charges the tag
// once rather than per entry; we reproduce the printed arithmetic so the
// table matches the publication.
func victimCells() int {
	victimTag := reference.AddrBits - reference.OffsetBits() + 1
	return victimTag + victimEntries*reference.DataBits()
}

// TableI computes every row of Table I.
func TableI() []Row {
	rows := make([]Row, 0, 6)
	for _, s := range Schemes() {
		rows = append(rows, RowFor(s))
	}
	return rows
}

// RowFor computes a single Table I row.
func RowFor(s Scheme) Row {
	g := reference
	blocks := g.Blocks()
	tagCells := (g.TagBits() + g.ValidBits) * blocks // 25*512
	wordsPerBlock := g.DataBits() / wordBits

	r := Row{Scheme: s}
	switch s {
	case Baseline:
		r.TagTransistors = tagCells * SixT
	case BaselineVC:
		r.TagTransistors = tagCells * SixT
		r.VictimTransistors = victimCells() * SixT
	case WordDisable:
		// Tag array and per-word fault mask both in 10T cells.
		r.TagTransistors = tagCells * TenT
		r.DisableTransistors = wordsPerBlock * blocks * TenT
		r.AlignmentNetwork = true
	case BlockDisable:
		r.TagTransistors = tagCells * SixT
		r.DisableTransistors = 1 * blocks * TenT
	case BlockDisableVC10T:
		r.TagTransistors = tagCells * SixT
		r.DisableTransistors = 1 * blocks * TenT
		r.VictimTransistors = victimCells() * TenT
	case BlockDisableVC6T:
		r.TagTransistors = tagCells * SixT
		r.DisableTransistors = 1 * blocks * TenT
		// 6T victim storage plus one 10T disable bit per victim entry.
		r.VictimTransistors = victimCells()*SixT + victimEntries*TenT
	}
	r.Total = r.TagTransistors + r.DisableTransistors + r.VictimTransistors
	return r
}
