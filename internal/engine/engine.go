// Package engine is the unified content-addressed compute layer behind
// every entrypoint of the repository. Each compute kind (capacity
// analysis, operating points, overhead, simulations, sweep runs and
// cells, DVFS runs and explorations) is expressed as a Task — a
// deterministic unit of work identified by its kind and the canonical
// hash of its result-defining parameters — and executed through one
// Engine that provides, once, what the HTTP handlers, job manager and
// CLIs used to half-implement each:
//
//   - singleflight in-flight deduplication: two concurrent identical
//     tasks execute the underlying computation exactly once;
//   - a two-tier result store: an in-memory LRU of marshalled response
//     bytes fronting a content-addressed on-disk store keyed
//     <kind>/<hash>.json, so computed results survive restarts;
//   - per-kind hit/miss/inflight statistics;
//   - a bounded worker Pool (folded in from the service's job manager)
//     for async execution.
//
// Determinism is what makes the engine simple: every task's result is a
// pure function of its canonical parameters (seeds derive from them), so
// neither tier ever needs invalidation and cached bytes can be replayed
// to any caller — HTTP, CLI or batch — bit for bit.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Task is one deterministic unit of compute. Implementations must be
// pure functions of their parameters: two tasks with equal Kind and
// CanonicalHash must produce byte-identical marshalled results.
type Task interface {
	// Kind names the compute family ("capacity", "sim", "sweep", ...).
	// It namespaces the hash in both store tiers and in the stats.
	Kind() string

	// CanonicalHash digests the task's result-defining parameters.
	// Scheduling knobs (worker counts) must be excluded.
	CanonicalHash() string

	// Run computes the result. The returned value must marshal to JSON;
	// its bytes become the stored, replayable representation.
	Run(ctx context.Context) (any, error)
}

// Source reports which tier satisfied a Do call.
type Source string

// Do sources, in lookup order.
const (
	// SourceCompute: no tier had the result; this call ran the task.
	SourceCompute Source = "miss"
	// SourceMemory: the in-memory LRU replayed the bytes.
	SourceMemory Source = "hit"
	// SourceDisk: the on-disk store replayed the bytes (e.g. after a
	// restart); the entry was promoted into the memory tier.
	SourceDisk Source = "disk"
	// SourceInflight: an identical task was already running; this call
	// waited for it instead of recomputing.
	SourceInflight Source = "inflight"
)

// Options sizes an Engine.
type Options struct {
	// MemEntries bounds the in-memory LRU; default 512.
	MemEntries int

	// Dir roots the on-disk result store (<Dir>/<kind>/<hash>.json).
	// Empty disables the disk tier: results then live only in memory.
	Dir string
}

// Result is one Do outcome: the marshalled result bytes (no trailing
// newline) and the tier that produced them.
type Result struct {
	Bytes  []byte
	Source Source
}

// Decode unmarshals the result bytes into v.
func (r Result) Decode(v any) error { return json.Unmarshal(r.Bytes, v) }

// call is one in-flight task execution other callers can wait on.
type call struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// Engine executes tasks through the two-tier store with singleflight
// deduplication. It is safe for concurrent use.
type Engine struct {
	mem  *memLRU
	disk *diskStore

	mu       sync.Mutex
	inflight map[string]*call

	stats statsTable
}

// New builds an engine, creating the disk-store root if configured.
func New(opts Options) (*Engine, error) {
	if opts.MemEntries <= 0 {
		opts.MemEntries = 512
	}
	e := &Engine{
		mem:      newMemLRU(opts.MemEntries),
		inflight: make(map[string]*call),
	}
	if opts.Dir != "" {
		d, err := newDiskStore(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.disk = d
	}
	return e, nil
}

// Do executes the task through the store: memory tier, then disk tier,
// then compute — with concurrent identical tasks deduplicated onto one
// execution. Errors are never cached. The returned bytes are shared; do
// not mutate them.
//
// A follower deduplicated onto another caller's execution does not
// share that caller's fate: if the leader's context is cancelled (its
// client disconnected), followers whose own context is still alive
// retry — one of them becomes the next leader.
func (e *Engine) Do(ctx context.Context, t Task) (Result, error) {
	return e.do(ctx, t, t.CanonicalHash())
}

// do is Do for a task whose canonical hash the caller already holds.
func (e *Engine) do(ctx context.Context, t Task, hash string) (Result, error) {
	kind := t.Kind()
	key := kind + "/" + hash

	for {
		if b, ok := e.mem.get(key, true); ok {
			e.stats.bump(kind, func(k *KindStats) { k.Hits++ })
			return Result{Bytes: b, Source: SourceMemory}, nil
		}
		if e.disk != nil {
			if b, ok := e.disk.get(kind, hash); ok {
				e.mem.put(key, b)
				e.stats.bump(kind, func(k *KindStats) { k.DiskHits++ })
				return Result{Bytes: b, Source: SourceDisk}, nil
			}
		}

		e.mu.Lock()
		if c, ok := e.inflight[key]; ok {
			e.mu.Unlock()
			e.stats.bump(kind, func(k *KindStats) { k.InflightWaits++ })
			select {
			case <-c.done:
				if c.err != nil {
					// The leader's cancellation is not ours; go around
					// (tiers first — the leader may have partially
					// succeeded) unless our own context is also done.
					if isContextErr(c.err) && ctx.Err() == nil {
						continue
					}
					return Result{}, c.err
				}
				return Result{Bytes: c.bytes, Source: SourceInflight}, nil
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		// Double-check the memory tier under the lock: a leader that
		// finished between our miss above and here has already stored the
		// bytes and retired its call entry. The miss is already counted.
		if b, ok := e.mem.get(key, false); ok {
			e.mu.Unlock()
			e.stats.bump(kind, func(k *KindStats) { k.Hits++ })
			return Result{Bytes: b, Source: SourceMemory}, nil
		}
		c := &call{done: make(chan struct{})}
		e.inflight[key] = c
		e.mu.Unlock()

		c.bytes, c.err = e.compute(ctx, t, hash, key)

		e.mu.Lock()
		delete(e.inflight, key)
		e.mu.Unlock()
		close(c.done)

		if c.err != nil {
			e.stats.bump(kind, func(k *KindStats) { k.Errors++ })
			return Result{}, c.err
		}
		e.stats.bump(kind, func(k *KindStats) { k.Misses++ })
		return Result{Bytes: c.bytes, Source: SourceCompute}, nil
	}
}

// isContextErr reports whether err stems from a cancelled or expired
// context.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ErrEncoding wraps a result that failed to marshal — a programming
// error in the task's response type, not a bad request. Callers mapping
// engine errors onto status codes should treat it as internal.
var ErrEncoding = errors.New("engine: encoding result")

// compute runs the task and stores the marshalled result in both tiers,
// under the hash and memory key Do derived from it.
func (e *Engine) compute(ctx context.Context, t Task, hash, key string) ([]byte, error) {
	v, err := t.Run(ctx)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrEncoding, t.Kind(), err)
	}
	e.mem.put(key, b)
	if e.disk != nil {
		if err := e.disk.put(t.Kind(), hash, b); err != nil {
			// The computation succeeded; a disk-tier write failure only
			// costs durability, so surface it without failing the call.
			e.stats.bump(t.Kind(), func(k *KindStats) { k.DiskErrors++ })
		}
	}
	return b, nil
}

// MemStats reports the memory tier's aggregate counters (the shape the
// service's /v1/stats "cache" section has always had).
func (e *Engine) MemStats() CacheStats { return e.mem.stats() }

// KindStats counts one task kind's outcomes.
type KindStats struct {
	Hits          uint64 `json:"hits"`           // memory-tier replays
	DiskHits      uint64 `json:"disk_hits"`      // disk-tier replays
	Misses        uint64 `json:"misses"`         // computed by this process
	InflightWaits uint64 `json:"inflight_waits"` // deduplicated onto a concurrent run
	Errors        uint64 `json:"errors"`         // failed computations (never cached)
	DiskErrors    uint64 `json:"disk_write_errors,omitempty"`
}

// Stats returns a snapshot of the per-kind counters.
func (e *Engine) Stats() map[string]KindStats { return e.stats.snapshot() }

// statsTable is the per-kind counter map.
type statsTable struct {
	mu sync.Mutex
	m  map[string]*KindStats
}

func (s *statsTable) bump(kind string, f func(*KindStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*KindStats)
	}
	k, ok := s.m[kind]
	if !ok {
		k = &KindStats{}
		s.m[kind] = k
	}
	f(k)
}

func (s *statsTable) snapshot() map[string]KindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]KindStats, len(s.m))
	for kind, k := range s.m {
		out[kind] = *k
	}
	return out
}
