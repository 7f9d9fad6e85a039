package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for " + what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTieredPoolInteractiveNeverStarved saturates the batch tier (its
// one worker busy, its backlog full) and checks interactive work still
// runs — the scheduling property the service's latency guarantees rest
// on.
func TestTieredPoolInteractiveNeverStarved(t *testing.T) {
	p := NewTieredPool(1, 1, 4, 4)
	defer p.Close()

	gate := make(chan struct{})
	defer close(gate)
	if err := p.SubmitTier(TierBatch, func(context.Context) { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch worker busy", func() bool { return p.running[TierBatch].Load() == 1 })
	for i := 0; i < 4; i++ {
		if err := p.SubmitTier(TierBatch, func(context.Context) {}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	if err := p.SubmitTier(TierInteractive, func(context.Context) { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("interactive work starved behind a saturated batch tier")
	}
}

// TestTieredPoolBatchConcurrencyCap verifies batch work never runs on
// more than batchWorkers workers even while interactive workers idle.
func TestTieredPoolBatchConcurrencyCap(t *testing.T) {
	p := NewTieredPool(3, 1, 8, 8)
	defer p.Close()

	gate := make(chan struct{})
	defer close(gate)
	var peak atomic.Int64
	for i := 0; i < 5; i++ {
		err := p.SubmitTier(TierBatch, func(context.Context) {
			if n := p.running[TierBatch].Load(); n > peak.Load() {
				peak.Store(n)
			}
			<-gate
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "one batch item running", func() bool { return p.running[TierBatch].Load() == 1 })
	// Give the (should-be-idle) interactive workers a chance to misbehave.
	time.Sleep(50 * time.Millisecond)
	if n := peak.Load(); n > 1 {
		t.Fatalf("batch concurrency peaked at %d, cap is 1", n)
	}
	if q := p.QueuedTier(TierBatch); q != 4 {
		t.Fatalf("batch backlog %d, want 4", q)
	}
}

// TestSubmitTierFullPerTier verifies the tiers reject independently: a
// full batch backlog must not refuse interactive submissions.
func TestSubmitTierFullPerTier(t *testing.T) {
	p := NewTieredPool(1, 1, 4, 1)
	defer p.Close()

	gate := make(chan struct{})
	defer close(gate)
	if err := p.SubmitTier(TierBatch, func(context.Context) { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch worker busy", func() bool { return p.running[TierBatch].Load() == 1 })
	if err := p.SubmitTier(TierBatch, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitTier(TierBatch, func(context.Context) {}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("overfull batch submit: %v, want ErrPoolFull", err)
	}
	if err := p.SubmitTier(TierInteractive, func(context.Context) {}); err != nil {
		t.Fatalf("interactive submit with full batch backlog: %v", err)
	}
}

func TestPoolStatsAndTierNames(t *testing.T) {
	p := NewTieredPool(1, 1, 4, 4)
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)
	p.SubmitTier(TierBatch, func(context.Context) { <-gate })
	waitFor(t, "batch running", func() bool { return p.Stats().Batch.Running == 1 })
	p.SubmitTier(TierBatch, func(context.Context) { <-gate })
	st := p.Stats()
	if st.Batch.Queued != 1 || st.Batch.Running != 1 {
		t.Fatalf("batch stats %+v, want queued 1 running 1", st.Batch)
	}
	// /v1/stats names the tiers through the JSON tags.
	if b, err := json.Marshal(st); err != nil || !bytes.Contains(b, []byte(`"interactive":{`)) || !bytes.Contains(b, []byte(`"batch":{`)) {
		t.Fatalf("pool stats %s (%v) do not name both tiers", b, err)
	}
}

// TestTieredPoolDrain covers Drain across both tiers.
func TestTieredPoolDrain(t *testing.T) {
	p := NewTieredPool(1, 1, 8, 8)
	var done atomic.Int64
	for i := 0; i < 3; i++ {
		if err := p.SubmitTier(TierBatch, func(context.Context) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
		if err := p.SubmitTier(TierInteractive, func(context.Context) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 6 {
		t.Fatalf("drained with %d/6 items done", n)
	}
	if err := p.SubmitTier(TierInteractive, func(context.Context) {}); !errors.Is(err, ErrPoolDraining) {
		t.Fatalf("submit while draining: %v, want ErrPoolDraining", err)
	}
	p.Close()
}
