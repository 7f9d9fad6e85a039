package geom

import (
	"testing"
	"testing/quick"
)

func TestReferenceGeometry(t *testing.T) {
	g := MustNew(32*1024, 8, 64)
	if got := g.Sets(); got != 64 {
		t.Errorf("Sets() = %d, want 64", got)
	}
	if got := g.Blocks(); got != 512 {
		t.Errorf("Blocks() = %d, want 512", got)
	}
	if got := g.OffsetBits(); got != 6 {
		t.Errorf("OffsetBits() = %d, want 6", got)
	}
	if got := g.IndexBits(); got != 6 {
		t.Errorf("IndexBits() = %d, want 6", got)
	}
	if got := g.TagBits(); got != 24 {
		t.Errorf("TagBits() = %d, want 24 (paper Table I)", got)
	}
	if got := g.CellsPerBlock(); got != 537 {
		t.Errorf("CellsPerBlock() = %d, want 537 (paper Section IV.A)", got)
	}
	if got := g.TotalCells(); got != 274944 {
		t.Errorf("TotalCells() = %d, want 274944 (paper Section IV.A)", got)
	}
}

func TestBlockSizeVariants(t *testing.T) {
	// Fig. 6 keeps size and associativity constant while varying block size.
	cases := []struct {
		blockBytes, wantSets, wantBlocks int
	}{
		{32, 128, 1024},
		{64, 64, 512},
		{128, 32, 256},
	}
	for _, c := range cases {
		g := MustNew(32*1024, 8, c.blockBytes)
		if g.Sets() != c.wantSets {
			t.Errorf("block %dB: Sets() = %d, want %d", c.blockBytes, g.Sets(), c.wantSets)
		}
		if g.Blocks() != c.wantBlocks {
			t.Errorf("block %dB: Blocks() = %d, want %d", c.blockBytes, g.Blocks(), c.wantBlocks)
		}
	}
}

func TestInvalidGeometries(t *testing.T) {
	bad := []Geometry{
		{SizeBytes: 0, Ways: 8, BlockBytes: 64, AddrBits: 36, ValidBits: 1},
		{SizeBytes: 32768, Ways: 0, BlockBytes: 64, AddrBits: 36, ValidBits: 1},
		{SizeBytes: 32768, Ways: 8, BlockBytes: 60, AddrBits: 36, ValidBits: 1},
		{SizeBytes: 32768, Ways: 7, BlockBytes: 64, AddrBits: 36, ValidBits: 1},
		{SizeBytes: 32768, Ways: 8, BlockBytes: 64, AddrBits: 12, ValidBits: 1},
		{SizeBytes: 32768, Ways: 8, BlockBytes: 64, AddrBits: 36, ValidBits: -1},
	}
	for i, g := range bad {
		if err := g.Check(); err == nil {
			t.Errorf("case %d: Check() accepted invalid geometry %+v", i, g)
		}
	}
}

func TestBlockAddrAlignment(t *testing.T) {
	g := MustNew(32*1024, 8, 64)
	f := func(raw uint64) bool {
		a := Addr(raw)
		ba := g.BlockAddr(a)
		return ba%Addr(g.BlockBytes) == 0 && // aligned
			ba <= a && a-ba < Addr(g.BlockBytes) // within same block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockIndexBounds(t *testing.T) {
	g := MustNew(32*1024, 8, 64)
	f := func(rawSet, rawWay uint16) bool {
		set := int(rawSet) % g.Sets()
		way := int(rawWay) % g.Ways
		idx := g.BlockIndex(set, way)
		return idx >= 0 && idx < g.Blocks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	g := MustNew(32*1024, 8, 64)
	want := "32KB 8-way 64B/block (64 sets, 24-bit tag)"
	if got := g.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
