// Package par is the repository's one deterministic fan-out: it spreads
// the indices [0, n) over a bounded set of goroutines while the caller
// keeps every result in its own index-addressed slot. Worker count
// changes only scheduling — which goroutine runs an index and when —
// never where a result lands, the order the in-order callback sees
// indices in, or which error is returned.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(w, i) once for every i in [0, n) on up to workers
// goroutines (workers <= 0 means GOMAXPROCS; more than n is clamped to
// n), the calling goroutine being one of them. Each goroutine builds one
// w with newWorker (nil: the zero W) and claims indices in contiguous
// chunks, sized from n and workers, from a shared counter.
//
// If done is non-nil, done(i) runs serially and in index order, as soon
// as fn has returned for every index 0..i — the hook for an in-order
// reduce or a checkpoint that must always be a valid prefix. It runs on
// one of the worker goroutines, with no lock held.
//
// The first error, from fn or done, stops further claims. Indices below
// the lowest failing index still run and still reach done, so Do returns
// the error of the lowest failing index whatever the worker count.
// n <= 0 starts no goroutine and calls nothing.
func Do[W any](n, workers int, newWorker func() W, fn func(w W, i int) error, done func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	r := &run[W]{
		n: n,
		// About sixteen chunks per worker: few enough claims to keep
		// the counter cold, enough to even out the tail.
		chunk:     max(1, n/(workers*16)),
		newWorker: newWorker,
		fn:        fn,
		done:      done,
	}
	r.limit.Store(int64(n))
	if done != nil {
		r.finished = make([]bool, n)
	}
	r.wg.Add(workers)
	for range workers - 1 {
		go r.work()
	}
	r.work()
	r.wg.Wait()
	return r.err
}

// run is one Do call's shared state.
type run[W any] struct {
	n, chunk  int
	newWorker func() W
	fn        func(W, int) error
	done      func(int) error
	wg        sync.WaitGroup
	next      atomic.Int64 // next unclaimed index
	// limit is the lowest failing index so far (n while none has
	// failed): no index at or above it starts.
	limit atomic.Int64

	mu       sync.Mutex
	err      error  // the error at limit
	finished []bool // fn returned nil for the index (done != nil only)
	frontier int    // the next index done has to see
	draining bool   // some goroutine is calling done
}

// work is one worker: it builds its W, then claims chunks until the
// indices run out or an index at or above limit comes up.
func (r *run[W]) work() {
	defer r.wg.Done()
	var w W
	if r.newWorker != nil {
		w = r.newWorker()
	}
	for start := r.claim(); start < r.n; start = r.claim() {
		for i := start; i < min(start+r.chunk, r.n); i++ {
			if int64(i) >= r.limit.Load() {
				return
			}
			if err := r.fn(w, i); err != nil {
				r.fail(i, err)
				return
			}
			if r.done != nil {
				r.finish(i)
			}
		}
	}
}

func (r *run[W]) claim() int {
	return int(r.next.Add(int64(r.chunk))) - r.chunk
}

func (r *run[W]) fail(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(i, err)
}

func (r *run[W]) failLocked(i int, err error) {
	if int64(i) < r.limit.Load() {
		r.limit.Store(int64(i))
		r.err = err
	}
}

// finish records that fn returned for index i, then, unless another
// goroutine is already doing so, calls done for every index the
// completed prefix now reaches.
func (r *run[W]) finish(i int) {
	r.mu.Lock()
	r.finished[i] = true
	if r.draining {
		r.mu.Unlock()
		return
	}
	r.draining = true
	for int64(r.frontier) < r.limit.Load() && r.finished[r.frontier] {
		j := r.frontier
		r.mu.Unlock()
		err := r.done(j)
		r.mu.Lock()
		if err != nil {
			r.failLocked(j, err)
			break
		}
		r.frontier++
	}
	r.draining = false
	r.mu.Unlock()
}
