package branch

import (
	"math/rand"
	"testing"
)

// MispredictRate returns mispredictions/predictions.
func (g *Gshare) MispredictRate() float64 {
	if g.Predictions == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.Predictions)
}

func TestGshareLearnsBias(t *testing.T) {
	g := MustNewGshare(15)
	const pc = 0x400100
	// Always-taken branch: after warmup (long enough for the history
	// register to saturate and the final counter to train), predictions
	// must be correct.
	for i := 0; i < 32; i++ {
		g.Predict(pc)
		g.Update(pc, true)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if g.Predict(pc) {
			correct++
		}
		g.Update(pc, true)
	}
	if correct != 100 {
		t.Errorf("trained always-taken branch predicted correctly %d/100", correct)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// A short repeating pattern is exactly what global history captures.
	g := MustNewGshare(15)
	pattern := []bool{true, true, false, true, false, false}
	for i := 0; i < 600; i++ {
		g.Update(0x1000, pattern[i%len(pattern)])
	}
	start := g.Mispredicts
	for i := 0; i < 600; i++ {
		g.Update(0x1000, pattern[i%len(pattern)])
	}
	rate := float64(g.Mispredicts-start) / 600
	if rate > 0.05 {
		t.Errorf("pattern mispredict rate after training = %v, want < 5%%", rate)
	}
}

func TestGshareRandomBranchNearChance(t *testing.T) {
	g := MustNewGshare(15)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		g.Update(uint64(0x2000+(i%7)*4), rng.Intn(2) == 0)
	}
	rate := g.MispredictRate()
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random branches mispredict rate = %v, want ≈0.5", rate)
	}
}

func TestGshareAliasingDistinctBranches(t *testing.T) {
	// Two branches with opposite bias and different PCs should both be
	// predictable (the index mixes PC bits).
	g := MustNewGshare(15)
	for i := 0; i < 2000; i++ {
		g.Update(0x4000, true)
		g.Update(0x8888, false)
	}
	start := g.Mispredicts
	for i := 0; i < 1000; i++ {
		g.Update(0x4000, true)
		g.Update(0x8888, false)
	}
	rate := float64(g.Mispredicts-start) / 2000
	if rate > 0.2 {
		t.Errorf("two biased branches mispredict rate = %v, want low", rate)
	}
}

func TestGshareValidation(t *testing.T) {
	if _, err := NewGshare(0); err == nil {
		t.Error("accepted zero history bits")
	}
	if _, err := NewGshare(31); err == nil {
		t.Error("accepted oversized history")
	}
	g := MustNewGshare(4)
	if len(g.counters) != 16 {
		t.Errorf("counter table = %d entries, want 16", len(g.counters))
	}
}

func TestGshareReset(t *testing.T) {
	g := MustNewGshare(8)
	g.Update(0x100, true)
	g.Reset()
	if g.Predictions != 0 || g.Mispredicts != 0 || g.history != 0 {
		t.Error("reset incomplete")
	}
	if g.MispredictRate() != 0 {
		t.Error("rate after reset should be 0")
	}
}

func TestBTB(t *testing.T) {
	b := MustNewBTB(256)
	if _, ok := b.Predict(0x400); ok {
		t.Error("cold BTB predicted")
	}
	b.Update(0x400, 0x1234)
	tgt, ok := b.Predict(0x400)
	if !ok || tgt != 0x1234 {
		t.Errorf("Predict = %#x,%v want 0x1234,true", tgt, ok)
	}
	// Conflicting PC (same index, different tag) misses rather than
	// returning a wrong-tagged entry.
	conflict := uint64(0x400 + 256*4)
	if _, ok := b.Predict(conflict); ok {
		t.Error("conflicting PC should miss")
	}
	b.Update(conflict, 0x5678)
	if _, ok := b.Predict(0x400); ok {
		t.Error("displaced entry should miss")
	}
	if b.Lookups != 4 || b.Hits != 1 {
		t.Errorf("stats = %d lookups %d hits, want 4/1", b.Lookups, b.Hits)
	}
}

func TestBTBValidation(t *testing.T) {
	if _, err := NewBTB(0); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := NewBTB(100); err == nil {
		t.Error("accepted non-power-of-two size")
	}
}
