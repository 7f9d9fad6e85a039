// Package core implements the paper's contribution: the cache-disabling
// schemes that trade capacity for reliable operation below Vcc-min.
//
//   - Block-disabling (Section III): every block containing a faulty cell —
//     in tag, valid or data — is disabled for low-voltage operation,
//     leaving each set with a variable number of enabled ways.
//   - Word-disabling (Section II, Wilkerson et al.): pairs of physical
//     blocks merge into one logical block, halving capacity and
//     associativity and adding one cycle of alignment-network latency;
//     a cache is unfit ("whole cache failure") if any 8-word subblock has
//     more than 4 faulty words.
//   - Incremental word-disabling (Section IV.C): fault-free pairs run at
//     full capacity, repairable pairs at half, unrepairable pairs are
//     disabled.
package core

import (
	"fmt"
	"math/bits"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
)

// WayMask is a per-set bitmask of enabled ways; bit w set means way w may
// be allocated at low voltage.
type WayMask uint64

// Enabled reports whether way w is enabled.
func (m WayMask) Enabled(w int) bool { return m>>uint(w)&1 == 1 }

// Count returns the number of enabled ways.
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// AllWays returns the mask with the first n ways enabled.
func AllWays(n int) WayMask { return WayMask(1)<<uint(n) - 1 }

// BlockDisableMap is the per-set way-enable state block-disabling derives
// from a fault map. It is what the cache consults at low voltage.
type BlockDisableMap struct {
	Geom geom.Geometry
	Sets []WayMask
}

// BuildBlockDisable classifies every block of the fault map: a block is
// disabled when any of its cells (tag, valid or data) is faulty. The
// classification reads the map's word-packed faulty-block bitset a whole
// set at a time rather than probing block records individually.
func BuildBlockDisable(m *faults.Map) *BlockDisableMap {
	g := m.Geom
	d := &BlockDisableMap{Geom: g, Sets: make([]WayMask, g.Sets())}
	all := AllWays(g.Ways)
	for set := 0; set < g.Sets(); set++ {
		d.Sets[set] = all &^ WayMask(m.FaultyWays(set))
	}
	return d
}

// BuildIncrementalEnable derives the way-enable map of incremental
// word-disabling (the paper's configuration) from a fault map, pair by
// pair as EvaluateIncrementalWD classifies them: both ways of a
// disabled pair are off, a repairable pair keeps way 2i (the merged
// block at half capacity), and a fault-free pair keeps both.
func BuildIncrementalEnable(m *faults.Map) *BlockDisableMap {
	g := m.Geom
	cfg := ReferenceWordDisable()
	subPerBlock := m.WordsPerBlock() / cfg.WordsPerSubblock
	d := &BlockDisableMap{Geom: g, Sets: make([]WayMask, g.Sets())}
	for set := 0; set < g.Sets(); set++ {
		var mask WayMask
		for p := 0; p < g.Ways/2; p++ {
			w0, w1 := 2*p, 2*p+1
			switch classifyPair(m, cfg, set, w0, w1, subPerBlock) {
			case PairFullCapacity:
				mask |= 1<<uint(w0) | 1<<uint(w1)
			case PairHalfCapacity:
				mask |= 1 << uint(w0)
			}
		}
		d.Sets[set] = mask
	}
	return d
}

// FullyEnabled returns a BlockDisableMap with every way of every set
// enabled — the high-voltage (or fault-free) configuration.
func FullyEnabled(g geom.Geometry) *BlockDisableMap {
	d := &BlockDisableMap{Geom: g, Sets: make([]WayMask, g.Sets())}
	all := AllWays(g.Ways)
	for i := range d.Sets {
		d.Sets[i] = all
	}
	return d
}

// Enabled reports whether (set, way) may be allocated.
func (d *BlockDisableMap) Enabled(set, way int) bool { return d.Sets[set].Enabled(way) }

// EnabledBlocks returns the total number of enabled blocks.
func (d *BlockDisableMap) EnabledBlocks() int {
	n := 0
	for _, m := range d.Sets {
		n += m.Count()
	}
	return n
}

// CapacityFraction returns enabled blocks / total blocks.
func (d *BlockDisableMap) CapacityFraction() float64 {
	return float64(d.EnabledBlocks()) / float64(d.Geom.Blocks())
}

// WaysHistogram returns how many sets have exactly w enabled ways, for
// w = 0..Ways. Block-disabling's variable associativity per set is the
// paper's explanation for its occasional worst-case losses.
func (d *BlockDisableMap) WaysHistogram() []int {
	h := make([]int, d.Geom.Ways+1)
	for _, m := range d.Sets {
		h[m.Count()]++
	}
	return h
}

// MinSetWays returns the smallest number of enabled ways in any set.
func (d *BlockDisableMap) MinSetWays() int {
	min := d.Geom.Ways
	for _, m := range d.Sets {
		if c := m.Count(); c < min {
			min = c
		}
	}
	return min
}

// String summarizes the map.
func (d *BlockDisableMap) String() string {
	return fmt.Sprintf("block-disable %s: %d/%d blocks enabled (%.1f%%), min set ways %d",
		d.Geom, d.EnabledBlocks(), d.Geom.Blocks(), 100*d.CapacityFraction(), d.MinSetWays())
}

// WordDisableConfig fixes the word-disable scheme's parameters: the
// paper uses 32-bit words and 8-word subblocks (at most 4 faulty words
// tolerated per subblock).
type WordDisableConfig struct {
	WordBits           int
	WordsPerSubblock   int
	ExtraLatencyCycles int // the alignment network: +1 cycle at both voltages
}

// ReferenceWordDisable returns the paper's word-disable configuration.
func ReferenceWordDisable() WordDisableConfig {
	return WordDisableConfig{WordBits: 32, WordsPerSubblock: 8, ExtraLatencyCycles: 1}
}

// WordDisableResult classifies a fault map for the word-disable scheme.
type WordDisableResult struct {
	Fit             bool // false = whole cache failure: unfit for low voltage
	FailedSubblocks int  // subblocks with more than half their words faulty
	TotalSubblocks  int
	LowVoltageGeom  geom.Geometry // the merged cache: half size, half ways
}

// EvaluateWordDisable checks every subblock of every block: more than
// wordsPerSubblock/2 faulty words in any subblock renders the whole cache
// defective (Section II). Tag faults are ignored: the word-disable tag
// array uses robust 10T cells.
func EvaluateWordDisable(m *faults.Map, cfg WordDisableConfig) WordDisableResult {
	g := m.Geom
	subPerBlock := m.WordsPerBlock() / cfg.WordsPerSubblock
	res := WordDisableResult{
		Fit:            true,
		TotalSubblocks: g.Blocks() * subPerBlock,
	}
	for set := 0; set < g.Sets(); set++ {
		for way := 0; way < g.Ways; way++ {
			for s := 0; s < subPerBlock; s++ {
				n := m.SubblockFaultyWords(set, way, s*cfg.WordsPerSubblock, cfg.WordsPerSubblock)
				if n > cfg.WordsPerSubblock/2 {
					res.Fit = false
					res.FailedSubblocks++
				}
			}
		}
	}
	lv := g
	lv.SizeBytes /= 2
	lv.Ways /= 2
	res.LowVoltageGeom = lv
	return res
}

// PairState classifies a block pair under incremental word-disabling.
type PairState int

const (
	PairFullCapacity PairState = iota // fault-free: full capacity at low voltage
	PairHalfCapacity                  // repairable: operates merged at half capacity
	PairDisabled                      // some subblock unrepairable: pair disabled
)

// String implements fmt.Stringer.
func (s PairState) String() string {
	switch s {
	case PairFullCapacity:
		return "full"
	case PairHalfCapacity:
		return "half"
	case PairDisabled:
		return "disabled"
	}
	return fmt.Sprintf("PairState(%d)", int(s))
}

// IncrementalWDResult summarizes incremental word-disabling over a map.
type IncrementalWDResult struct {
	FullPairs, HalfPairs, DisabledPairs int
}

// EvaluateIncrementalWD classifies every (way 2i, way 2i+1) pair of every
// set (Section IV.C). Pairs with no faulty data cells run at full
// capacity; pairs where every subblock is repairable run at half; the rest
// are disabled. Tag faults are ignored (10T tag array), matching Eq. 6
// which uses only data bits.
func EvaluateIncrementalWD(m *faults.Map, cfg WordDisableConfig) IncrementalWDResult {
	g := m.Geom
	subPerBlock := m.WordsPerBlock() / cfg.WordsPerSubblock
	var res IncrementalWDResult
	for set := 0; set < g.Sets(); set++ {
		for p := 0; p < g.Ways/2; p++ {
			w0, w1 := 2*p, 2*p+1
			state := classifyPair(m, cfg, set, w0, w1, subPerBlock)
			switch state {
			case PairFullCapacity:
				res.FullPairs++
			case PairHalfCapacity:
				res.HalfPairs++
			case PairDisabled:
				res.DisabledPairs++
			}
		}
	}
	return res
}

func classifyPair(m *faults.Map, cfg WordDisableConfig, set, w0, w1, subPerBlock int) PairState {
	faultFree := m.At(set, w0).WordMask == 0 && m.At(set, w1).WordMask == 0
	if faultFree {
		return PairFullCapacity
	}
	for _, way := range []int{w0, w1} {
		for s := 0; s < subPerBlock; s++ {
			n := m.SubblockFaultyWords(set, way, s*cfg.WordsPerSubblock, cfg.WordsPerSubblock)
			if n > cfg.WordsPerSubblock/2 {
				return PairDisabled
			}
		}
	}
	return PairHalfCapacity
}

// CapacityFraction returns the incremental scheme's capacity: full pairs
// contribute their whole two blocks, half pairs one block, disabled pairs
// nothing (Eq. 6 realized on a concrete map).
func (r IncrementalWDResult) CapacityFraction() float64 {
	pairs := r.FullPairs + r.HalfPairs + r.DisabledPairs
	if pairs == 0 {
		return 0
	}
	return (float64(r.FullPairs) + 0.5*float64(r.HalfPairs)) / float64(pairs)
}

// VictimUsableEntries applies the paper's 6T victim-cache policy: a 6T
// victim cache at low voltage keeps only its fault-free entries, and the
// paper conservatively evaluates with half the entries usable (Section V:
// analysis at pfail=0.001 predicts a mean of 6.5 faulty entries out of 16;
// the evaluation assumes 8).
func VictimUsableEntries(entries int) int { return entries / 2 }
