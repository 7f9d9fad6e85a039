package limit

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// NewWithClock is New with an injectable clock, for deterministic
// tests.
func NewWithClock(rate, burst float64, now func() time.Time) *Limiter {
	l := New(rate, burst)
	l.now = now
	return l
}

// fakeClock is a hand-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBurstThenReject(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewWithClock(1, 2, clk.now)

	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("request %d within burst rejected", i+1)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("third request with empty bucket allowed")
	}
	// The bucket is exactly empty, so the next token is one full period
	// away at 1 req/s.
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter %v, want (0, 1s]", retry)
	}

	clk.advance(time.Second)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("request after a full refill period rejected")
	}
}

func TestKeysAreIndependent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewWithClock(1, 1, clk.now)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first request for key a rejected")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("first request for key b rejected (keys must not share buckets)")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second request for drained key a allowed")
	}
}

func TestRefillIsContinuous(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewWithClock(2, 1, clk.now) // 2 tokens/s, capacity 1
	l.Allow("a")
	clk.advance(250 * time.Millisecond) // half a token accrued
	if ok, retry := l.Allow("a"); ok {
		t.Fatal("allowed with only half a token")
	} else if retry <= 0 || retry > 250*time.Millisecond {
		t.Fatalf("retryAfter %v, want (0, 250ms]", retry)
	}
	clk.advance(250 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("rejected after the full token accrued")
	}
}

func TestBurstDefaults(t *testing.T) {
	if b := New(10, 0).Burst(); b != 20 {
		t.Fatalf("default burst %v, want 2x rate = 20", b)
	}
	// A sub-1 computed burst rounds up so a conforming client's first
	// request is never rejected.
	if b := New(0.1, 0).Burst(); b != 1 {
		t.Fatalf("tiny-rate burst %v, want 1", b)
	}
}

func TestIdleEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewWithClock(100, 1, clk.now)
	for i := 0; i < l.maxKeys; i++ {
		l.Allow(fmt.Sprintf("k%d", i))
	}
	if got := l.Stats().Keys; got != l.maxKeys {
		t.Fatalf("table holds %d keys, want %d", got, l.maxKeys)
	}
	// Everything has been idle long past a full refill; the next new key
	// triggers eviction and the table collapses to just it.
	clk.advance(time.Minute)
	l.Allow("fresh")
	if got := l.Stats().Keys; got != 1 {
		t.Fatalf("after idle eviction table holds %d keys, want 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewWithClock(1, 1, clk.now)
	l.Allow("a")
	l.Allow("a")
	l.Allow("a")
	st := l.Stats()
	if st.Allowed != 1 || st.Rejected != 2 {
		t.Fatalf("allowed %d rejected %d, want 1 and 2", st.Allowed, st.Rejected)
	}
}

func TestConcurrentAllow(t *testing.T) {
	l := New(1e9, 1e9) // effectively unlimited; exercises locking only
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Allow(fmt.Sprintf("k%d", (g+i)%16))
			}
		}(g)
	}
	wg.Wait()
	if st := l.Stats(); st.Allowed != 8*200 {
		t.Fatalf("allowed %d, want %d", st.Allowed, 8*200)
	}
}
