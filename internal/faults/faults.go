// Package faults models the low-voltage cell failures of an SRAM cache
// array. Following the paper (and Wilkerson et al.), faults strike
// individual cells independently and uniformly at random with probability
// pfail; a fault map records, per block, which words and whether the tag
// region contain faulty cells.
//
// Cell layout within a block follows the array organization used by the
// analysis: the first DataBits cells are the data (grouped into words of
// WordBits), followed by the tag and valid cells. Word-disabling protects
// its tag array with 10T cells, so its fitness checks ignore tag faults;
// block-disabling counts a block faulty if any of its cells — data, tag or
// valid — fails.
package faults

import (
	"fmt"
	"math/bits"
	"math/rand"

	"vccmin/internal/geom"
)

// BlockFaults records the faulty cells of one block frame.
type BlockFaults struct {
	WordMask  uint64 // bit w set: word w contains at least one faulty data cell
	TagFaulty bool   // any faulty cell among tag+valid bits
	Cells     int    // total faulty cells in this block

	// PairMask records faulty 2-bit pairs of the data array (bit i set:
	// pair i, i.e. data cells 2i and 2i+1, contains a faulty cell).
	// Sized for up to 128-byte blocks (512 pairs). This is the
	// granularity the bit-fix scheme of Wilkerson et al. repairs at.
	PairMask [8]uint64
}

// Faulty reports whether the block contains any faulty cell.
func (b BlockFaults) Faulty() bool { return b.Cells > 0 }

// FaultyPairsIn counts the faulty 2-bit pairs among pairs
// [start, start+count) of the block's data array.
func (b BlockFaults) FaultyPairsIn(start, count int) int {
	n := 0
	for p := start; p < start+count; p++ {
		if b.PairMask[p/64]>>uint(p%64)&1 == 1 {
			n++
		}
	}
	return n
}

// Map is a fault map for one cache array.
type Map struct {
	Geom     geom.Geometry
	WordBits int
	Blocks   []BlockFaults
	Total    int // total faulty cells

	// faulty is a word-packed bitset with bit b set iff Blocks[b] contains
	// at least one faulty cell. It is the block index: FaultyBlocks is
	// a popcount over it and core.BuildBlockDisable reads whole sets from
	// it 64 blocks at a time, instead of either walking the ~80-byte
	// BlockFaults records block by block. Every in-package generator keeps
	// it in sync (addFault, the sparse inject kernel, the Sampler's
	// clears, serialization). It is nil only for a Map literal assembled
	// outside the package, for which the accessors fall back to scanning
	// Blocks; code that edits Blocks records by hand builds such a
	// literal.
	faulty []uint64
}

// NewEmpty returns an all-good fault map for the geometry.
func NewEmpty(g geom.Geometry, wordBits int) *Map {
	return &Map{
		Geom:     g,
		WordBits: wordBits,
		Blocks:   make([]BlockFaults, g.Blocks()),
		faulty:   make([]uint64, (g.Blocks()+63)/64),
	}
}

// Generate draws a fault map with each of the array's d*k cells faulty
// independently with probability pfail. It uses geometric skipping, so cost
// is proportional to the number of faults, not the number of cells.
func Generate(g geom.Geometry, wordBits int, pfail float64, rng *rand.Rand) *Map {
	m := NewEmpty(g, wordBits)
	if pfail <= 0 {
		return m
	}
	total := g.TotalCells()
	if pfail >= 1 {
		for i := 0; i < total; i++ {
			m.addFault(i)
		}
		return m
	}
	// Geometric skipping: the gap to the next faulty cell is geometric.
	gap := NewGapSampler(pfail)
	cell := -1
	for {
		cell += 1 + gap.Skip(rng.Float64())
		if cell >= total || cell < 0 { // < 0 guards int overflow on absurd skips
			return m
		}
		m.addFault(cell)
	}
}

// ClusterParams configures the clustered (non-uniform) fault model — the
// paper's future-work extension. Faults arrive as clusters whose centers
// are uniform; each cluster marks Size consecutive cells faulty.
type ClusterParams struct {
	Pfail float64 // overall expected fraction of faulty cells
	Size  int     // cells per cluster (1 = the uniform model)
}

// GenerateClustered draws a fault map under the clustered model. The
// expected number of faulty cells matches Generate at the same pfail, but
// the faults are spatially correlated.
func GenerateClustered(g geom.Geometry, wordBits int, p ClusterParams, rng *rand.Rand) *Map {
	if p.Size <= 1 {
		return Generate(g, wordBits, p.Pfail, rng)
	}
	m := NewEmpty(g, wordBits)
	if p.Pfail <= 0 {
		return m
	}
	total := g.TotalCells()
	centerRate := p.Pfail / float64(p.Size)
	if centerRate >= 1 {
		centerRate = 1
	}
	gap := NewGapSampler(centerRate)
	cell := -1
	for {
		cell += 1 + gap.Skip(rng.Float64())
		if cell >= total || cell < 0 {
			return m
		}
		for i := 0; i < p.Size && cell+i < total; i++ {
			m.addFault(cell + i)
		}
	}
}

// addFault marks linear cell index faulty. Duplicate additions are
// harmless for the word/tag masks but would double-count Cells, so callers
// must pass distinct cells (all generators above do).
func (m *Map) addFault(cell int) {
	k := m.Geom.CellsPerBlock()
	block := cell / k
	offset := cell % k
	bf := &m.Blocks[block]
	if offset < m.Geom.DataBits() {
		bf.WordMask |= 1 << uint(offset/m.WordBits)
		pair := offset / 2
		bf.PairMask[pair/64] |= 1 << uint(pair%64)
	} else {
		bf.TagFaulty = true
	}
	bf.Cells++
	m.Total++
	if m.faulty != nil {
		m.faulty[block>>6] |= 1 << uint(block&63)
	}
}

// At returns the fault record for a (set, way) block frame.
func (m *Map) At(set, way int) BlockFaults {
	return m.Blocks[m.Geom.BlockIndex(set, way)]
}

// FaultyBlocks returns the number of blocks containing at least one faulty
// cell — the realization of the paper's u.
func (m *Map) FaultyBlocks() int {
	if m.faulty != nil {
		n := 0
		for _, w := range m.faulty {
			n += bits.OnesCount64(w)
		}
		return n
	}
	n := 0
	for _, b := range m.Blocks {
		if b.Faulty() {
			n++
		}
	}
	return n
}

// FaultyWays returns a bitmask with bit w set iff block (set, way w) has
// any faulty cell — the per-set slice of the faulty-block bitset that
// block-disabling inverts into a way-enable mask. Block indices of one
// set are contiguous (BlockIndex = set·Ways + way), so the mask is at
// most two bitset words re-aligned; the fallback for externally
// assembled maps scans the set's BlockFaults.
func (m *Map) FaultyWays(set int) uint64 {
	ways := m.Geom.Ways
	if m.faulty == nil {
		var mask uint64
		base := set * ways
		for w := 0; w < ways; w++ {
			if m.Blocks[base+w].Faulty() {
				mask |= 1 << uint(w)
			}
		}
		return mask
	}
	bit := uint(set * ways)
	off := bit & 63
	v := m.faulty[bit>>6] >> off
	if off+uint(ways) > 64 {
		v |= m.faulty[bit>>6+1] << (64 - off)
	}
	if ways < 64 {
		v &= 1<<uint(ways) - 1
	}
	return v
}

// CapacityFraction returns the fraction of fault-free blocks, the capacity
// available to block-disabling.
func (m *Map) CapacityFraction() float64 {
	return 1 - float64(m.FaultyBlocks())/float64(len(m.Blocks))
}

// WordsPerBlock returns the number of words in a block's data array.
func (m *Map) WordsPerBlock() int { return m.Geom.DataBits() / m.WordBits }

// SubblockFaultyWords returns the number of faulty words in the subblock
// of wordsPerSubblock words starting at word index start of block (set,
// way).
func (m *Map) SubblockFaultyWords(set, way, start, wordsPerSubblock int) int {
	mask := (uint64(1)<<uint(wordsPerSubblock) - 1) << uint(start)
	b := m.At(set, way)
	n := 0
	for w := b.WordMask & mask; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// String summarizes the map.
func (m *Map) String() string {
	return fmt.Sprintf("fault map %s: %d faulty cells in %d/%d blocks",
		m.Geom, m.Total, m.FaultyBlocks(), len(m.Blocks))
}

// Pair bundles the instruction- and data-cache maps the simulation
// experiments draw together (Section V: "Each pair consists of two maps,
// one for the instruction cache and another for the data cache").
type Pair struct {
	I, D *Map
}
