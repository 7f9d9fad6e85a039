// Package limit implements the per-client token-bucket rate limiter
// behind the service's traffic hardening. Each client key (an API key
// header, or the remote IP when no key is sent) owns one bucket that
// refills continuously at a configured rate up to a burst ceiling; a
// request spends one token or is rejected with the wait until a token
// will be available — the number the HTTP layer surfaces as a 429 with
// Retry-After. Buckets are created lazily and evicted once idle long
// enough to have refilled completely, so the key table stays bounded
// under address-churn traffic without ever evicting state that still
// constrains a client.
package limit

import (
	"sync"
	"time"
)

// Limiter is a keyed token-bucket rate limiter. The zero value is not
// usable; construct with New. Safe for concurrent use.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	maxKeys int

	allowed  uint64
	rejected uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// New builds a limiter granting rate requests per second per key with
// bursts up to burst. rate must be positive; burst <= 0 defaults to
// 2*rate (and at least 1 token, so a conforming client is never
// rejected on its first request).
func New(rate, burst float64) *Limiter {
	if burst <= 0 {
		burst = 2 * rate
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		buckets: make(map[string]*bucket),
		maxKeys: 8192,
	}
}

// Rate returns the per-key refill rate (requests per second).
func (l *Limiter) Rate() float64 { return l.rate }

// Burst returns the bucket capacity.
func (l *Limiter) Burst() float64 { return l.burst }

// Allow spends one token from key's bucket. When the bucket is empty it
// reports ok=false and how long the client must wait for the next token
// to accrue — the Retry-After the HTTP layer sends with its 429.
func (l *Limiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()

	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.maxKeys {
			l.evictIdle(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
		}
		b.last = now
	}

	if b.tokens >= 1 {
		b.tokens--
		l.allowed++
		return true, 0
	}
	l.rejected++
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// evictIdle drops every bucket idle long enough to have refilled
// completely — evicting it loses no constraint, because a fresh bucket
// starts full anyway. Called under l.mu when the table is at capacity;
// worst case (every key still active) the table grows past maxKeys
// until clients go idle, which only costs memory, never correctness.
func (l *Limiter) evictIdle(now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) >= full {
			delete(l.buckets, k)
		}
	}
}

// Stats is a point-in-time view of the limiter's counters.
type Stats struct {
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
	Keys       int     `json:"keys"`
	Allowed    uint64  `json:"allowed"`
	Rejected   uint64  `json:"rejected"`
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		RatePerSec: l.rate,
		Burst:      l.burst,
		Keys:       len(l.buckets),
		Allowed:    l.allowed,
		Rejected:   l.rejected,
	}
}
