// Package branch implements the front-end predictors of the simulated
// core (Table II): an 8 KB gshare direction predictor with 15 bits of
// global history and a branch target buffer standing in for the line
// predictor.
package branch

import "fmt"

// Gshare is a global-history XOR-indexed table of 2-bit saturating
// counters. An 8 KB budget at 2 bits per counter gives 32768 counters,
// indexed by 15 bits — the paper's configuration.
type Gshare struct {
	historyBits int
	history     uint64
	counters    []uint8

	Predictions uint64
	Mispredicts uint64
}

// NewGshare builds a gshare predictor with historyBits of global history
// and 2^historyBits counters.
func NewGshare(historyBits int) (*Gshare, error) {
	if historyBits <= 0 || historyBits > 30 {
		return nil, fmt.Errorf("branch: history bits %d out of range (1..30)", historyBits)
	}
	return &Gshare{
		historyBits: historyBits,
		counters:    make([]uint8, 1<<uint(historyBits)),
	}, nil
}

// MustNewGshare is NewGshare but panics on error.
func MustNewGshare(historyBits int) *Gshare {
	g, err := NewGshare(historyBits)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Gshare) index(pc uint64) int {
	mask := uint64(1)<<uint(g.historyBits) - 1
	return int(((pc >> 2) ^ g.history) & mask)
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.counters[g.index(pc)] >= 2
}

// Update trains the predictor with the actual outcome and records whether
// the prediction made at the same history state was correct. Call once per
// executed branch, after Predict.
func (g *Gshare) Update(pc uint64, taken bool) {
	idx := g.index(pc)
	predicted := g.counters[idx] >= 2
	g.Predictions++
	if predicted != taken {
		g.Mispredicts++
	}
	if taken {
		if g.counters[idx] < 3 {
			g.counters[idx]++
		}
	} else if g.counters[idx] > 0 {
		g.counters[idx]--
	}
	g.history = (g.history<<1 | b2u(taken)) & (1<<uint(g.historyBits) - 1)
}

// MispredictRate returns mispredictions/predictions.
func (g *Gshare) MispredictRate() float64 {
	if g.Predictions == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.Predictions)
}

// Reset clears all state.
func (g *Gshare) Reset() {
	for i := range g.counters {
		g.counters[i] = 0
	}
	g.history, g.Predictions, g.Mispredicts = 0, 0, 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer; it stands in for the
// Alpha-style line predictor: a hit steers fetch to the predicted target
// with only the usual taken-branch bubble, a miss costs a full redirect.
type BTB struct {
	entries []btbEntry
	mask    uint64

	Lookups uint64
	Hits    uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// NewBTB builds a BTB with size entries (power of two).
func NewBTB(size int) (*BTB, error) {
	if size <= 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("branch: BTB size %d must be a positive power of two", size)
	}
	return &BTB{entries: make([]btbEntry, size), mask: uint64(size - 1)}, nil
}

// MustNewBTB is NewBTB but panics on error.
func MustNewBTB(size int) *BTB {
	b, err := NewBTB(size)
	if err != nil {
		panic(err)
	}
	return b
}

// Predict returns the cached target for pc, if any.
func (b *BTB) Predict(pc uint64) (uint64, bool) {
	b.Lookups++
	e := &b.entries[(pc>>2)&b.mask]
	if e.valid && e.tag == pc {
		b.Hits++
		return e.target, true
	}
	return 0, false
}

// Update installs the observed target for pc.
func (b *BTB) Update(pc, target uint64) {
	b.entries[(pc>>2)&b.mask] = btbEntry{tag: pc, target: target, valid: true}
}

// Reset clears all state.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
	b.Lookups, b.Hits = 0, 0
}
