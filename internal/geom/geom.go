// Package geom provides cache geometry and address arithmetic shared by the
// fault model, the disabling schemes, and the cache hierarchy.
//
// The reference geometry of the paper is a 32 KB, 8-way, 64 B/block cache
// with a 36-bit physical address, giving 64 sets, a 6-bit index, a 6-bit
// offset, a 24-bit tag and one valid bit per block (Table I).
package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is a physical byte address.
type Addr uint64

// Geometry describes a set-associative cache array.
//
// The zero value is not usable; construct with New or validate with Check.
type Geometry struct {
	SizeBytes  int // total data capacity in bytes
	Ways       int // associativity
	BlockBytes int // block (line) size in bytes
	AddrBits   int // physical address width used for tag sizing
	ValidBits  int // valid/state bits per block counted as vulnerable cells
}

// New returns a validated geometry. ValidBits defaults to 1, AddrBits to 36
// (the paper's reference: 24-bit tag + 6-bit index + 6-bit offset).
func New(sizeBytes, ways, blockBytes int) (Geometry, error) {
	g := Geometry{
		SizeBytes:  sizeBytes,
		Ways:       ways,
		BlockBytes: blockBytes,
		AddrBits:   36,
		ValidBits:  1,
	}
	if err := g.Check(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// Parse converts the CLI- and API-style "SIZExWAYSxBLOCK" form (e.g.
// "32768x8x64") into a validated geometry.
func Parse(s string) (Geometry, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return Geometry{}, fmt.Errorf("geom: bad geometry %q (want SIZExWAYSxBLOCK)", s)
	}
	size, err1 := strconv.Atoi(parts[0])
	ways, err2 := strconv.Atoi(parts[1])
	block, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return Geometry{}, fmt.Errorf("geom: bad geometry %q (want SIZExWAYSxBLOCK)", s)
	}
	return New(size, ways, block)
}

// MustNew is New but panics on invalid geometry; for tests and constants.
func MustNew(sizeBytes, ways, blockBytes int) Geometry {
	g, err := New(sizeBytes, ways, blockBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// Check validates the geometry.
func (g Geometry) Check() error {
	switch {
	case g.SizeBytes <= 0:
		return fmt.Errorf("geom: size %d must be positive", g.SizeBytes)
	case g.BlockBytes <= 0 || !isPow2(g.BlockBytes):
		return fmt.Errorf("geom: block size %d must be a positive power of two", g.BlockBytes)
	case g.Ways <= 0:
		return fmt.Errorf("geom: associativity %d must be positive", g.Ways)
	case g.SizeBytes%(g.BlockBytes*g.Ways) != 0:
		return fmt.Errorf("geom: size %d not divisible by ways*block (%d*%d)", g.SizeBytes, g.Ways, g.BlockBytes)
	case !isPow2(g.Sets()):
		return fmt.Errorf("geom: sets %d must be a power of two", g.Sets())
	case g.AddrBits <= g.OffsetBits()+g.IndexBits():
		return fmt.Errorf("geom: address width %d leaves no tag bits", g.AddrBits)
	case g.ValidBits < 0:
		return fmt.Errorf("geom: valid bits %d must be non-negative", g.ValidBits)
	}
	return nil
}

// Sets returns the number of sets.
func (g Geometry) Sets() int { return g.SizeBytes / (g.BlockBytes * g.Ways) }

// Blocks returns the total number of blocks (d in the paper's analysis).
func (g Geometry) Blocks() int { return g.SizeBytes / g.BlockBytes }

// OffsetBits returns the number of block-offset address bits.
func (g Geometry) OffsetBits() int { return log2(g.BlockBytes) }

// IndexBits returns the number of set-index address bits.
func (g Geometry) IndexBits() int { return log2(g.Sets()) }

// TagBits returns the number of tag bits per block.
func (g Geometry) TagBits() int { return g.AddrBits - g.IndexBits() - g.OffsetBits() }

// DataBits returns the number of data bits per block.
func (g Geometry) DataBits() int { return g.BlockBytes * 8 }

// CellsPerBlock returns k, the number of vulnerable cells per block:
// data + tag + valid bits. For the reference cache k = 512+24+1 = 537.
func (g Geometry) CellsPerBlock() int { return g.DataBits() + g.TagBits() + g.ValidBits }

// TotalCells returns d*k, the number of vulnerable cells in the array.
func (g Geometry) TotalCells() int { return g.Blocks() * g.CellsPerBlock() }

// BlockAddr strips the offset bits, returning the block-aligned address.
func (g Geometry) BlockAddr(a Addr) Addr {
	return a &^ Addr(g.BlockBytes-1)
}

// BlockIndex returns the linear block number (set*ways+way layout is the
// caller's concern; this numbers the block frames 0..Blocks()-1 by set).
func (g Geometry) BlockIndex(set, way int) int { return set*g.Ways + way }

// String implements fmt.Stringer.
func (g Geometry) String() string {
	return fmt.Sprintf("%dKB %d-way %dB/block (%d sets, %d-bit tag)",
		g.SizeBytes/1024, g.Ways, g.BlockBytes, g.Sets(), g.TagBits())
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}
