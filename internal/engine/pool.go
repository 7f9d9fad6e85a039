package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Tier classifies pool work for scheduling. The pool serves two queues:
// interactive work (a user is waiting on the response) and batch work
// (sweep jobs, bulk requests — throughput matters, latency does not).
// Batch execution is capped at the pool's batch worker count while
// interactive work may run on every worker, so a saturated batch
// backlog can never starve interactive requests — the serving-layer
// version of the paper's thesis: keep delivering useful work at a
// degraded operating point instead of stalling.
type Tier int

// The two scheduling tiers.
const (
	// TierInteractive work may run on every worker and is preferred
	// when a dual worker has a choice.
	TierInteractive Tier = iota
	// TierBatch work runs only on the batch workers; it queues (and is
	// eventually shed by the admission layer) rather than crowd out
	// interactive traffic.
	TierBatch
)

// String names the tier for stats and logs.
func (t Tier) String() string {
	if t == TierBatch {
		return "batch"
	}
	return "interactive"
}

// Pool is the bounded two-tier worker pool the async layers share: a
// fixed number of workers draining two buffered queues, with
// drain/close lifecycle and per-tier counters for /v1/stats and the
// admission watermarks.
//
// Worker layout: batchWorkers "dual" workers take work from both
// queues; interactiveWorkers additional workers serve only the
// interactive queue. Batch concurrency is therefore capped at
// batchWorkers, while interactive work can use every worker.
type Pool struct {
	interactive chan func(context.Context)
	batch       chan func(context.Context)
	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup

	queued   [2]atomic.Int64 // by Tier
	running  [2]atomic.Int64 // by Tier
	draining atomic.Bool
}

// Pool submission errors.
var (
	// ErrPoolDraining rejects submissions after Drain began.
	ErrPoolDraining = errors.New("engine: pool draining, not accepting work")
	// ErrPoolFull rejects submissions when the tier's backlog is at
	// capacity — the signal the service's admission layer turns into a
	// 503 with Retry-After.
	ErrPoolFull = errors.New("engine: pool queue full")
)

// NewTieredPool starts interactiveWorkers workers dedicated to the
// interactive queue plus batchWorkers dual workers serving both queues,
// over per-tier backlogs. batchWorkers <= 0 defaults to 2; backlogs
// <= 0 default to 1024.
func NewTieredPool(interactiveWorkers, batchWorkers, interactiveBacklog, batchBacklog int) *Pool {
	if batchWorkers <= 0 {
		batchWorkers = 2
	}
	if interactiveWorkers < 0 {
		interactiveWorkers = 0
	}
	if interactiveBacklog <= 0 {
		interactiveBacklog = 1024
	}
	if batchBacklog <= 0 {
		batchBacklog = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		interactive: make(chan func(context.Context), interactiveBacklog),
		batch:       make(chan func(context.Context), batchBacklog),
		ctx:         ctx,
		cancel:      cancel,
	}
	for i := 0; i < batchWorkers; i++ {
		p.wg.Add(1)
		go p.dualWorker()
	}
	for i := 0; i < interactiveWorkers; i++ {
		p.wg.Add(1)
		go p.interactiveWorker()
	}
	return p
}

// run executes one item, keeping the counters in Drain's required
// order: running rises before queued falls, so a mid-handoff item can
// never look already drained.
func (p *Pool) run(tier Tier, fn func(context.Context)) {
	p.running[tier].Add(1)
	p.queued[tier].Add(-1)
	fn(p.ctx)
	p.running[tier].Add(-1)
}

// dualWorker serves both queues. When both have work ready the select
// picks either; the cap guarantees (batch concurrency <= batch worker
// count, interactive never starved) do not depend on the choice.
func (p *Pool) dualWorker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case fn := <-p.interactive:
			p.run(TierInteractive, fn)
		case fn := <-p.batch:
			p.run(TierBatch, fn)
		}
	}
}

// interactiveWorker serves only the interactive queue; batch work can
// never occupy it.
func (p *Pool) interactiveWorker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case fn := <-p.interactive:
			p.run(TierInteractive, fn)
		}
	}
}

// SubmitTier enqueues fn on the given tier, rejecting with ErrPoolFull
// when that tier's backlog is at capacity and ErrPoolDraining after
// Drain began. The fn receives the pool's context, which Close cancels.
func (p *Pool) SubmitTier(tier Tier, fn func(context.Context)) error {
	if p.draining.Load() {
		return ErrPoolDraining
	}
	q := p.batch
	if tier == TierInteractive {
		q = p.interactive
	}
	select {
	case q <- fn:
		p.queued[tier].Add(1)
		return nil
	default:
		return ErrPoolFull
	}
}

// Draining reports whether Drain has begun (new work is rejected).
func (p *Pool) Draining() bool { return p.draining.Load() }

// Queued returns the number of submitted items not yet picked up,
// summed over both tiers.
func (p *Pool) Queued() int64 {
	return p.queued[TierInteractive].Load() + p.queued[TierBatch].Load()
}

// Running returns the number of items currently executing, summed over
// both tiers.
func (p *Pool) Running() int64 {
	return p.running[TierInteractive].Load() + p.running[TierBatch].Load()
}

// QueuedTier returns the tier's backlog depth — the admission layer's
// watermark input.
func (p *Pool) QueuedTier(tier Tier) int64 { return p.queued[tier].Load() }

// RunningTier returns the number of the tier's items currently
// executing.
func (p *Pool) RunningTier(tier Tier) int64 { return p.running[tier].Load() }

// TierStats is one tier's point-in-time counters.
type TierStats struct {
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
}

// PoolStats is the pool section of the service's /v1/stats response.
type PoolStats struct {
	Interactive TierStats `json:"interactive"`
	Batch       TierStats `json:"batch"`
}

// Stats snapshots both tiers' counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Interactive: TierStats{Queued: p.queued[TierInteractive].Load(), Running: p.running[TierInteractive].Load()},
		Batch:       TierStats{Queued: p.queued[TierBatch].Load(), Running: p.running[TierBatch].Load()},
	}
}

// Drain stops accepting new work and waits for both queues to empty and
// the running items to finish, or for ctx to expire — the graceful half
// of shutdown. Call Close afterwards either way.
func (p *Pool) Drain(ctx context.Context) error {
	p.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if p.Queued() == 0 && p.Running() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close cancels the pool context (running items observe it and exit)
// and waits for the workers to return.
func (p *Pool) Close() {
	p.cancel()
	p.wg.Wait()
}
