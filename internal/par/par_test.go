package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestEmptyCallsNothing(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		err := Do(n, 4,
			func() int { called = true; return 0 },
			func(int, int) error { called = true; return nil },
			func(int) error { called = true; return nil })
		if err != nil || called {
			t.Fatalf("n=%d: err %v, called %v; want nothing run", n, err, called)
		}
	}
}

// TestEveryIndexOnce covers workers above n, at n and defaulted (<= 0):
// fn sees each index exactly once, each goroutine builds one worker
// value and never shares it, and the caller's slots are all filled.
func TestEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{-1, 0, 1, 3, n, 5 * n} {
		var built atomic.Int64
		slots := make([]int, n)
		err := Do(n, workers,
			func() *atomic.Bool { built.Add(1); return new(atomic.Bool) },
			func(inUse *atomic.Bool, i int) error {
				if !inUse.CompareAndSwap(false, true) {
					return fmt.Errorf("index %d: worker value shared by two goroutines", i)
				}
				slots[i]++
				inUse.Store(false)
				return nil
			}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range slots {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if b := built.Load(); b < 1 || (workers > 0 && b > int64(min(workers, n))) {
			t.Fatalf("workers=%d: newWorker ran %d times", workers, b)
		}
	}
}

// TestDoneInOrder holds done to strictly increasing indices, each seen
// once and only after its own fn returned, while sleeps on the early
// indices make later ones finish first.
func TestDoneInOrder(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		var finished [n]atomic.Bool
		var seen []int
		err := Do(n, workers, nil,
			func(_ struct{}, i int) error {
				if i < 8 {
					time.Sleep(time.Duration(8-i) * time.Millisecond)
				}
				finished[i].Store(true)
				return nil
			},
			func(i int) error {
				for j := 0; j <= i; j++ {
					if !finished[j].Load() {
						return fmt.Errorf("done(%d) ran before fn(%d) returned", i, j)
					}
				}
				seen = append(seen, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: done saw %d indices, want %d", workers, len(seen), n)
		}
		for k, i := range seen {
			if i != k {
				t.Fatalf("workers=%d: done call %d saw index %d", workers, k, i)
			}
		}
	}
}

// TestErrorStopsClaims fails one index, from fn and then from done, and
// checks that the run stops well short of n and that done never passes
// the failure. Indices after the failing one sleep, so running them all
// would take far longer than the test does.
func TestErrorStopsClaims(t *testing.T) {
	const n, bad = 2000, 5
	boom := errors.New("boom")
	for _, from := range []string{"fn", "done"} {
		for _, workers := range []int{1, 4} {
			var calls atomic.Int64
			var doneMax atomic.Int64
			doneMax.Store(-1)
			err := Do(n, workers, nil,
				func(_ struct{}, i int) error {
					calls.Add(1)
					if i == bad && from == "fn" {
						return boom
					}
					if i > bad {
						time.Sleep(time.Millisecond)
					}
					return nil
				},
				func(i int) error {
					doneMax.Store(int64(i))
					if i == bad && from == "done" {
						return boom
					}
					return nil
				})
			if !errors.Is(err, boom) {
				t.Fatalf("%s workers=%d: err %v, want boom", from, workers, err)
			}
			if c := calls.Load(); c >= n/2 {
				t.Fatalf("%s workers=%d: fn ran %d of %d indices after the failure at %d", from, workers, c, n, bad)
			}
			wantDone := int64(bad - 1)
			if from == "done" {
				wantDone = bad
			}
			if d := doneMax.Load(); d != wantDone {
				t.Fatalf("%s workers=%d: done reached %d, want %d", from, workers, d, wantDone)
			}
			if workers == 1 && from == "fn" && calls.Load() != bad+1 {
				t.Fatalf("workers=1: fn ran %d times, want %d", calls.Load(), bad+1)
			}
		}
	}
}

// TestLowestErrorWins fails two indices, the higher one at once and the
// lower one late, so with several workers the higher error is usually
// recorded first; Do must still return the lower index's error at every
// worker count.
func TestLowestErrorWins(t *testing.T) {
	const n, lo, hi = 64, 3, 40
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			err := Do(n, workers, nil, func(_ struct{}, i int) error {
				switch i {
				case lo:
					time.Sleep(2 * time.Millisecond)
					return fmt.Errorf("index %d", lo)
				case hi:
					return fmt.Errorf("index %d", hi)
				}
				return nil
			}, func(int) error { return nil })
			if err == nil || err.Error() != fmt.Sprintf("index %d", lo) {
				t.Fatalf("workers=%d rep=%d: got %v, want index %d", workers, rep, err, lo)
			}
		}
	}
}
