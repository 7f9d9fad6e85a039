package faults

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"vccmin/internal/geom"
	"vccmin/internal/prob"
)

var refGeom = geom.MustNew(32*1024, 8, 64)

func TestEmptyMap(t *testing.T) {
	m := NewEmpty(refGeom, 32)
	if m.Total != 0 || m.FaultyBlocks() != 0 {
		t.Errorf("empty map has faults: %s", m)
	}
	if m.CapacityFraction() != 1 {
		t.Errorf("empty map capacity = %v, want 1", m.CapacityFraction())
	}
}

func TestGenerateExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if m := Generate(refGeom, 32, 0, rng); m.Total != 0 {
		t.Errorf("pfail=0 produced %d faults", m.Total)
	}
	m := Generate(refGeom, 32, 1, rng)
	if m.Total != refGeom.TotalCells() {
		t.Errorf("pfail=1 produced %d faults, want %d", m.Total, refGeom.TotalCells())
	}
	if m.CapacityFraction() != 0 {
		t.Errorf("pfail=1 capacity = %v, want 0", m.CapacityFraction())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(refGeom, 32, 0.001, rand.New(rand.NewSource(42)))
	b := Generate(refGeom, 32, 0.001, rand.New(rand.NewSource(42)))
	if a.Total != b.Total {
		t.Fatalf("same seed, different fault counts: %d vs %d", a.Total, b.Total)
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("same seed, block %d differs", i)
		}
	}
	c := Generate(refGeom, 32, 0.001, rand.New(rand.NewSource(43)))
	same := true
	for i := range a.Blocks {
		if a.Blocks[i] != c.Blocks[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical maps")
	}
}

func TestGenerateMatchesBernoulliRate(t *testing.T) {
	// Total faults across many maps should match pfail * cells.
	const pfail = 0.001
	const trials = 60
	rng := rand.New(rand.NewSource(7))
	total := 0
	for i := 0; i < trials; i++ {
		total += Generate(refGeom, 32, pfail, rng).Total
	}
	want := pfail * float64(refGeom.TotalCells()) * trials
	sd := math.Sqrt(want) // Poisson-ish
	if math.Abs(float64(total)-want) > 5*sd {
		t.Errorf("total faults = %d, want %v ± %v", total, want, 5*sd)
	}
}

func TestMonteCarloMatchesEq2(t *testing.T) {
	// Mean fraction of faulty blocks over many maps ≈ Eq. 2.
	const pfail = 0.001
	const trials = 80
	rng := rand.New(rand.NewSource(11))
	sum := 0.0
	for i := 0; i < trials; i++ {
		m := Generate(refGeom, 32, pfail, rng)
		sum += float64(m.FaultyBlocks()) / float64(len(m.Blocks))
	}
	got := sum / trials
	want := prob.MeanFaultyBlockFraction(refGeom.CellsPerBlock(), pfail)
	// σ of the per-map fraction ≈ 2.2pp; 80 trials → s.e. ≈ 0.25pp.
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Monte Carlo faulty fraction = %v, Eq.2 predicts %v", got, want)
	}
}

func TestCellAccounting(t *testing.T) {
	// Faulty cells counted per block must sum to the map total, and word
	// masks must stay within the block's word count.
	m := Generate(refGeom, 32, 0.005, rand.New(rand.NewSource(5)))
	sum := 0
	wordsPerBlock := m.WordsPerBlock()
	for _, b := range m.Blocks {
		sum += b.Cells
		if b.WordMask>>uint(wordsPerBlock) != 0 {
			t.Fatalf("word mask %#x exceeds %d words", b.WordMask, wordsPerBlock)
		}
		if b.Cells == 0 && (b.WordMask != 0 || b.TagFaulty) {
			t.Fatal("block with zero cells has fault marks")
		}
		if b.Cells > 0 && b.WordMask == 0 && !b.TagFaulty {
			t.Fatal("block with faults has no marks")
		}
	}
	if sum != m.Total {
		t.Errorf("per-block cells sum %d != total %d", sum, m.Total)
	}
}

func TestTagRegionFaults(t *testing.T) {
	// Inject every cell of block 0 one at a time and verify the data/tag
	// split: cells [0, DataBits) set word bits, the rest set TagFaulty.
	g := refGeom
	for _, cell := range []int{0, 31, 32, g.DataBits() - 1, g.DataBits(), g.CellsPerBlock() - 1} {
		m := NewEmpty(g, 32)
		m.addFault(cell)
		b := m.Blocks[0]
		if cell < g.DataBits() {
			wantWord := cell / 32
			if b.WordMask != 1<<uint(wantWord) || b.TagFaulty {
				t.Errorf("cell %d: mask %#x tag %v, want word %d only", cell, b.WordMask, b.TagFaulty, wantWord)
			}
		} else if !b.TagFaulty || b.WordMask != 0 {
			t.Errorf("cell %d: mask %#x tag %v, want tag fault only", cell, b.WordMask, b.TagFaulty)
		}
	}
}

func TestSubblockFaultyWords(t *testing.T) {
	m := NewEmpty(refGeom, 32)
	// Make words 0, 3, 9 faulty in block 0 (set 0, way 0).
	for _, w := range []int{0, 3, 9} {
		m.addFault(w * 32)
	}
	if got := m.SubblockFaultyWords(0, 0, 0, 8); got != 2 {
		t.Errorf("subblock 0 faulty words = %d, want 2", got)
	}
	if got := m.SubblockFaultyWords(0, 0, 8, 8); got != 1 {
		t.Errorf("subblock 1 faulty words = %d, want 1", got)
	}
	if got := bits.OnesCount64(m.At(0, 0).WordMask); got != 3 {
		t.Errorf("faulty words = %d, want 3", got)
	}
}

func TestGeneratePairDeterministic(t *testing.T) {
	ig := geom.MustNew(32*1024, 8, 64)
	a := GeneratePairSparse(ig, refGeom, 32, 0.001, 99)
	b := GeneratePairSparse(ig, refGeom, 32, 0.001, 99)
	if a.I.Total != b.I.Total || a.D.Total != b.D.Total {
		t.Error("same seed produced different pairs")
	}
	if a.I.Total == 0 && a.D.Total == 0 {
		t.Error("pair has no faults at pfail=0.001 (suspicious)")
	}
}

func TestClusteredMatchesRate(t *testing.T) {
	const pfail = 0.002
	rng := rand.New(rand.NewSource(21))
	totalU, totalC := 0, 0
	const trials = 40
	for i := 0; i < trials; i++ {
		totalU += Generate(refGeom, 32, pfail, rng).Total
		totalC += GenerateClustered(refGeom, 32, ClusterParams{Pfail: pfail, Size: 8}, rng).Total
	}
	// Clustered model should deliver roughly the same fault rate.
	ratio := float64(totalC) / float64(totalU)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("clustered/uniform fault ratio = %v, want ≈1", ratio)
	}
}

func TestClusteredConcentratesFaults(t *testing.T) {
	// Same fault budget in clusters of 8 must hit fewer distinct blocks —
	// the mechanism that makes clustering *better* for block-disabling.
	const pfail = 0.002
	rngU := rand.New(rand.NewSource(31))
	rngC := rand.New(rand.NewSource(31))
	blocksU, blocksC := 0, 0
	for i := 0; i < 40; i++ {
		blocksU += Generate(refGeom, 32, pfail, rngU).FaultyBlocks()
		blocksC += GenerateClustered(refGeom, 32, ClusterParams{Pfail: pfail, Size: 8}, rngC).FaultyBlocks()
	}
	if blocksC >= blocksU {
		t.Errorf("clustered faults hit %d blocks vs uniform %d; clustering should concentrate", blocksC, blocksU)
	}
}

func TestClusterSizeOneIsUniform(t *testing.T) {
	a := GenerateClustered(refGeom, 32, ClusterParams{Pfail: 0.001, Size: 1}, rand.New(rand.NewSource(8)))
	b := Generate(refGeom, 32, 0.001, rand.New(rand.NewSource(8)))
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatal("cluster size 1 should match the uniform generator exactly")
		}
	}
}

func TestCapacityFractionInRange(t *testing.T) {
	f := func(seed int64, rawP float64) bool {
		p := math.Abs(math.Mod(rawP, 0.01))
		m := Generate(refGeom, 32, p, rand.New(rand.NewSource(seed)))
		c := m.CapacityFraction()
		return c >= 0 && c <= 1
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
