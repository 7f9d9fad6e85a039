package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testTask is a configurable task for the engine tests: its identity is
// (kind, hash) and its Run reports into runs and can block on gate.
type testTask struct {
	kind string
	hash string
	runs *atomic.Int64
	gate chan struct{} // if non-nil, Run blocks until closed
	err  error
	val  any
}

func (t testTask) Kind() string          { return t.kind }
func (t testTask) CanonicalHash() string { return t.hash }
func (t testTask) Run(ctx context.Context) (any, error) {
	if t.runs != nil {
		t.runs.Add(1)
	}
	if t.gate != nil {
		<-t.gate
	}
	if t.err != nil {
		return nil, t.err
	}
	if t.val != nil {
		return t.val, nil
	}
	return map[string]string{"kind": t.kind, "hash": t.hash}, nil
}

func newTestEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(Options{MemEntries: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDoTiersAndStats(t *testing.T) {
	e := newTestEngine(t, "")
	var runs atomic.Int64
	task := testTask{kind: "demo", hash: "abc", runs: &runs}

	r1, err := e.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourceCompute {
		t.Fatalf("first Do source %q, want %q", r1.Source, SourceCompute)
	}
	r2, err := e.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceMemory {
		t.Fatalf("second Do source %q, want %q", r2.Source, SourceMemory)
	}
	if string(r1.Bytes) != string(r2.Bytes) {
		t.Fatal("memory tier replayed different bytes")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("task ran %d times, want 1", n)
	}
	st := e.Stats()["demo"]
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss + 1 hit", st)
	}
	var v map[string]string
	if err := r2.Decode(&v); err != nil || v["hash"] != "abc" {
		t.Fatalf("Decode: %v %v", v, err)
	}
}

// TestSingleflight is the acceptance test: N concurrent identical tasks
// must execute the underlying computation exactly once. Run under -race
// in CI.
func TestSingleflight(t *testing.T) {
	e := newTestEngine(t, t.TempDir())
	var runs atomic.Int64
	gate := make(chan struct{})
	task := testTask{kind: "sf", hash: "one", runs: &runs, gate: gate}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Do(context.Background(), task)
		}(i)
	}
	// Let every caller reach the engine while the leader blocks, then
	// release the computation.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("concurrent identical tasks ran the computation %d times, want exactly 1", n)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(results[i].Bytes) != string(results[0].Bytes) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	st := e.Stats()["sf"]
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (stats %+v)", st.Misses, st)
	}
	if st.InflightWaits == 0 {
		t.Fatalf("no inflight waits recorded (stats %+v)", st)
	}
}

// TestDiskTierSurvivesRestart: a second engine over the same directory
// must serve previously computed results from the disk tier without
// recomputing, and promote them into its memory tier.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	task := testTask{kind: "persist", hash: "deadbeef", runs: &runs, val: []int{1, 2, 3}}

	e1 := newTestEngine(t, dir)
	r1, err := e1.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourceCompute {
		t.Fatalf("source %q, want compute", r1.Source)
	}
	if _, err := os.Stat(filepath.Join(dir, "persist", "deadbeef.json")); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	e2 := newTestEngine(t, dir) // "restart"
	r2, err := e2.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceDisk {
		t.Fatalf("post-restart source %q, want %q", r2.Source, SourceDisk)
	}
	if string(r2.Bytes) != string(r1.Bytes) {
		t.Fatal("disk tier replayed different bytes")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("task recomputed after restart (%d runs)", n)
	}
	r3, _ := e2.Do(context.Background(), task)
	if r3.Source != SourceMemory {
		t.Fatalf("disk hit not promoted to memory (source %q)", r3.Source)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	e := newTestEngine(t, t.TempDir())
	var runs atomic.Int64
	bad := testTask{kind: "err", hash: "x", runs: &runs, err: errors.New("boom")}
	for i := 0; i < 2; i++ {
		if _, err := e.Do(context.Background(), bad); err == nil {
			t.Fatal("want error")
		}
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("failed task ran %d times, want 2 (errors must not be cached)", n)
	}
	if st := e.Stats()["err"]; st.Errors != 2 {
		t.Fatalf("stats %+v, want 2 errors", st)
	}
	if _, err := os.Stat(filepath.Join(e.disk.dir, "err")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("error result reached the disk tier: %v", err)
	}
}

func TestMemLRUEviction(t *testing.T) {
	c := newMemLRU(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a", true); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.get("b", true); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a", true); !ok {
		t.Fatal("a should have survived")
	}
	st := c.stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolLifecycle(t *testing.T) {
	p := NewTieredPool(0, 2, 8, 8)
	var done atomic.Int64
	for i := 0; i < 5; i++ {
		if err := p.SubmitTier(TierBatch, func(context.Context) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 5 {
		t.Fatalf("drained with %d/5 items done", n)
	}
	if err := p.SubmitTier(TierBatch, func(context.Context) {}); !errors.Is(err, ErrPoolDraining) {
		t.Fatalf("submit while draining: %v, want ErrPoolDraining", err)
	}
	p.Close()
}

func TestPoolQueueFull(t *testing.T) {
	p := NewTieredPool(0, 1, 1, 1)
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)
	// Occupy the worker, then fill the one-slot backlog.
	if err := p.SubmitTier(TierBatch, func(context.Context) { <-gate }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.SubmitTier(TierBatch, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitTier(TierBatch, func(context.Context) {}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("overfull submit: %v, want ErrPoolFull", err)
	}
}

// registerBatchKind registers TestRegistryAndBatch's task kind. The
// registry is process-wide and RegisterKind panics on a duplicate, so the
// kind is registered once per process, not once per run of the test
// (go test -count=N runs it N times).
var registerBatchKind sync.Once

func TestRegistryAndBatch(t *testing.T) {
	const kind = "test-batch"
	registerBatchKind.Do(func() {
		RegisterKind(kind, func(params json.RawMessage) (Task, error) {
			var p struct {
				Hash string `json:"hash"`
			}
			dec := json.NewDecoder(bytes.NewReader(params))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Hash == "" {
				p.Hash = "default"
			}
			return testTask{kind: kind, hash: p.Hash}, nil
		})
	})

	if _, err := DecodeTask("no-such-kind", nil); err == nil {
		t.Fatal("unknown kind must error")
	}

	items := []BatchItem{
		{Kind: kind, Params: json.RawMessage(`{"hash":"a"}`)},
		{Kind: kind, Params: json.RawMessage(`{"hash":"a"}`)}, // dedups onto the first
		{Kind: kind}, // empty params -> defaults
		{Kind: "no-such-kind"},
		{Kind: kind, Params: json.RawMessage(`{"bogus":1}`)}, // unknown field
	}
	var first []BatchResult
	for _, workers := range []int{2, 1, 8} {
		e := newTestEngine(t, "")
		out := RunBatch(context.Background(), e, items, workers, nil)
		if len(out) != len(items) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(items))
		}
		if out[0].Error != "" || out[1].Error != "" || out[2].Error != "" {
			t.Fatalf("workers=%d: unexpected errors: %+v", workers, out[:3])
		}
		if out[0].Hash != out[1].Hash || string(out[0].Value) != string(out[1].Value) {
			t.Fatalf("workers=%d: identical batch items must share hash and bytes", workers)
		}
		if out[3].Error == "" || out[4].Error == "" {
			t.Fatalf("workers=%d: bad items must carry per-item errors: %+v", workers, out[3:])
		}
		st := e.Stats()[kind]
		if st.Misses != 2 { // "a" once, "default" once
			t.Fatalf("workers=%d: batch stats %+v, want 2 misses", workers, st)
		}
		// Which tier answered a duplicate depends on scheduling; the
		// answers themselves, in request order, must not.
		for i := range out {
			out[i].Source = ""
		}
		for i, r := range out {
			if r.Kind != items[i].Kind {
				t.Fatalf("workers=%d: result %d is for kind %q, want %q", workers, i, r.Kind, items[i].Kind)
			}
		}
		if first == nil {
			first = out
		} else if !reflect.DeepEqual(out, first) {
			t.Fatalf("workers=%d: answers differ from workers=2:\n%+v\n%+v", workers, out, first)
		}
	}
}

// hashCountingTask is a testTask that counts its CanonicalHash calls.
type hashCountingTask struct {
	testTask
	hashes *atomic.Int64
}

func (t hashCountingTask) CanonicalHash() string {
	t.hashes.Add(1)
	return t.testTask.CanonicalHash()
}

// TestDoHashesOnce: Do computes a task's content address once per call,
// whichever tier answers, and hands that one hash to both disk-tier
// calls.
func TestDoHashesOnce(t *testing.T) {
	dir := t.TempDir()
	var hashes atomic.Int64
	task := hashCountingTask{testTask: testTask{kind: "count", hash: "c0ffee"}, hashes: &hashes}
	e1 := newTestEngine(t, dir)
	e2 := newTestEngine(t, dir) // shares e1's disk tier, not its memory
	for _, c := range []struct {
		e    *Engine
		want Source
	}{{e1, SourceCompute}, {e2, SourceDisk}, {e2, SourceMemory}} {
		hashes.Store(0)
		r, err := c.e.Do(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if r.Source != c.want {
			t.Fatalf("source %q, want %q", r.Source, c.want)
		}
		if n := hashes.Load(); n != 1 {
			t.Errorf("%s: Do called CanonicalHash %d times, want 1", c.want, n)
		}
	}
}

// registerCountKind registers TestBatchHashesOnce's kind once per
// process, as registerBatchKind does.
var (
	registerCountKind sync.Once
	batchHashes       atomic.Int64
)

// TestBatchHashesOnce: a batch item's content address is computed once,
// for both the item's hash field and the engine's lookup, whichever tier
// answers, and also when the gate rejects the item.
func TestBatchHashesOnce(t *testing.T) {
	const kind = "test-batch-count"
	registerCountKind.Do(func() {
		RegisterKind(kind, func(json.RawMessage) (Task, error) {
			return hashCountingTask{testTask: testTask{kind: kind, hash: "b0a7"}, hashes: &batchHashes}, nil
		})
	})
	dir := t.TempDir()
	items := []BatchItem{{Kind: kind}}
	reject := func(Task) error { return errors.New("too big") }
	for _, c := range []struct {
		e    *Engine
		gate func(Task) error
		want Source
	}{{newTestEngine(t, dir), nil, SourceCompute}, {newTestEngine(t, dir), nil, SourceDisk}, {newTestEngine(t, dir), reject, ""}} {
		batchHashes.Store(0)
		r := RunBatch(context.Background(), c.e, items, 1, c.gate)[0]
		if r.Source != string(c.want) || r.Hash != "b0a7" {
			t.Fatalf("item %+v, want source %q and hash b0a7", r, c.want)
		}
		if n := batchHashes.Load(); n != 1 {
			t.Errorf("source %q: one batch item called CanonicalHash %d times, want 1", c.want, n)
		}
	}
}

// TestMemStatsOneMissPerCompute: a computed Do looks in the memory tier
// twice — before the disk tier and again under the in-flight lock — but
// counts one miss; the hit that follows counts one hit.
func TestMemStatsOneMissPerCompute(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		e := newTestEngine(t, dir)
		task := testTask{kind: "memstats", hash: "m"}
		for _, want := range []CacheStats{{Misses: 1}, {Hits: 1, Misses: 1}} {
			if _, err := e.Do(context.Background(), task); err != nil {
				t.Fatal(err)
			}
			if st := e.MemStats(); st.Hits != want.Hits || st.Misses != want.Misses {
				t.Errorf("dir %q: memory tier %+v, want hits %d misses %d", dir, st, want.Hits, want.Misses)
			}
		}
	}
}
