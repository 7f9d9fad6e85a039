package pipeline

import (
	"math/rand"
	"slices"
	"testing"
)

// scanFUPool is the frozen reference for fuPool: one free time per unit
// in unit order, a linear scan for the earliest-free unit (the lowest
// index on a tie), and a claim that overwrites that unit's free time.
type scanFUPool struct {
	free [maxFU]uint64
	n    int
}

// earliestAt returns the first cycle >= t at which a unit is free and the
// index of that unit.
func (p *scanFUPool) earliestAt(t uint64) (uint64, int) {
	best, idx := p.free[0], 0
	for i := 1; i < p.n; i++ {
		if p.free[i] < best {
			best, idx = p.free[i], i
		}
	}
	if best < t {
		best = t
	}
	return best, idx
}

// claim occupies unit idx for the cycle t.
func (p *scanFUPool) claim(idx int, t uint64) { p.free[idx] = t + 1 }

// TestFUPoolDifferential drives the sorted fuPool and the scan-based
// reference with the same seeded claim streams, for every pool size the
// configuration allows, and requires the same earliestAt answer at every
// step and the same multiset of free times after every claim. The
// streams mix claims at the earliest-free cycle, claims pushed later (as
// a full issue slot does) and claims that reach back before units that
// are already busy, and they query cycles both ahead of and behind the
// pool.
func TestFUPoolDifferential(t *testing.T) {
	const steps = 20000
	for n := 1; n <= maxFU; n++ {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			ref, got := scanFUPool{n: n}, fuPool{n: n}
			now := uint64(0)
			for step := 0; step < steps; step++ {
				q := now + uint64(rng.Intn(4))
				if rng.Intn(8) == 0 {
					q = uint64(rng.Int63n(int64(now) + 1))
				}
				want, idx := ref.earliestAt(q)
				if e := got.earliestAt(q); e != want {
					t.Fatalf("n=%d seed=%d step %d: earliestAt(%d) = %d, reference %d", n, seed, step, q, e, want)
				}
				at := want + uint64(rng.Intn(3))
				if rng.Intn(10) == 0 {
					at = uint64(rng.Int63n(int64(want) + 1))
				}
				ref.claim(idx, at)
				got.claim(at)
				now = max(now, at)
				sorted := slices.Clone(ref.free[:n])
				slices.Sort(sorted)
				if !slices.Equal(got.free[:n], sorted) {
					t.Fatalf("n=%d seed=%d step %d: free times %v, reference multiset %v", n, seed, step, got.free[:n], sorted)
				}
			}
		}
	}
}
