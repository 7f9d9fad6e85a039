// Package lfrand is a drop-in replica of math/rand's default source
// (the additive lagged-Fibonacci generator with tap 273 and lag 607)
// exposing the exact draw methods the hot paths use — Int63, Float64,
// Intn — as concrete, inlinable calls on a value type.
//
// Why it exists: the workload generator and the fleet population's
// per-die draws pin byte-identical random streams (golden fixtures,
// sweep row hashes and the dvfs frontier all depend on them), so they
// cannot switch to a cheaper generator family. What they CAN shed is
// math/rand's fixed overhead: the Source interface dispatch on every
// draw, the heap allocation per rand.New, and most of the seeding cost.
// math/rand's Seed walks the chain x ← 48271·x mod 2³¹−1 for 1841
// dependent steps, two integer divisions each. Its k-th value is
// 48271ᵏ·x₀ mod 2³¹−1, so Seed here multiplies x₀ by the 1821 powers
// the state words read (a table built once at init) instead: three
// independent Mersenne-prime multiply-reduces per state word, which
// the CPU overlaps, and exactly the same residues.
//
// Exactness contract: for every seed, a Source produces the identical
// value stream to rand.New(rand.NewSource(seed)) for the replicated
// methods. The additive constants math/rand folds into its seeded state
// (its unexported rngCooked table) are recovered once at init from a
// throwaway rand.NewSource via reflection and verified against live
// math/rand streams across several seeds; if the verification fails on
// some future Go runtime, every Source transparently falls back to
// delegating to a *rand.Rand, trading speed for unconditional
// equality. TestReplicated fails loudly when that happens, and
// TestSourceMatchesMathRand and FuzzSeedState hold the replica to the
// contract.
package lfrand

import (
	"math"
	"math/rand"
	"reflect"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	int32max = 1<<31 - 1

	// seedWarmup is the number of chain steps math/rand's Seed discards
	// before the first state word.
	seedWarmup = 20
)

// seedPow[i] holds 48271ᵏ mod 2³¹−1 for the three chain steps k that
// build state word i: k = seedWarmup+3i+1, +2 and +3. Built at package
// initialization, before init recovers and verifies the cooked table.
var seedPow = seedPowers()

func seedPowers() (t [rngLen][3]uint32) {
	x := int32(1)
	for k := 0; k < seedWarmup; k++ {
		x = seedrand(x)
	}
	for i := range t {
		for j := range t[i] {
			x = seedrand(x)
			t[i][j] = uint32(x)
		}
	}
	return t
}

// cooked is math/rand's rngCooked table: the state its Seed XORs into
// the replayable seed chain. Recovered at init; valid only when
// cookedOK is true.
var (
	cooked   [rngLen]uint64
	cookedOK bool
)

func init() {
	cookedOK = recoverCooked() && verify()
}

// recoverCooked extracts the cooked table from a freshly seeded
// rand.NewSource: its state vector is seedChain(seed) XOR cooked, and
// the seed chain is replayable from the documented algorithm, so one
// XOR per word recovers the constants. Reading the unexported vec
// field via reflection only uses Int() on the elements (reading
// unexported fields is allowed; only Interface/Set are not).
func recoverCooked() (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	const probeSeed = 1
	src := rand.NewSource(probeSeed)
	v := reflect.ValueOf(src).Elem().FieldByName("vec")
	if !v.IsValid() || v.Kind() != reflect.Array || v.Len() != rngLen ||
		v.Type().Elem().Kind() != reflect.Int64 {
		return false
	}
	// Replay the documented x-chain: 20 warmup steps, then three steps
	// per state word building u = x₁<<40 ^ x₂<<20 ^ x₃.
	x := seedInit(probeSeed)
	for i := -seedWarmup; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := uint64(x) << 40
			x = seedrand(x)
			u ^= uint64(x) << 20
			x = seedrand(x)
			u ^= uint64(x)
			cooked[i] = uint64(v.Index(i).Int()) ^ u
		}
	}
	return true
}

// verifySeeds are the seeds verify checks the replica on. They cover
// seedInit's branches the power table relies on: 0 and 2³¹−1 (both
// reduce to 0 and start the chain at 89482311), negative seeds (which
// wrap) and math.MinInt64.
var verifySeeds = []int64{1, 7, -3, 424242, 1 << 40, 0, int32max, math.MinInt64}

// verify checks the replica against live math/rand streams: each of
// verifySeeds, enough draws to wrap the lag window, and every
// replicated method including Intn's power-of-two and rejection paths.
func verify() bool {
	for _, seed := range verifySeeds {
		ref := rand.New(rand.NewSource(seed))
		var s Source
		s.seedDirect(seed)
		for i := 0; i < 2*rngLen; i++ {
			if s.Int63() != ref.Int63() {
				return false
			}
		}
		for i := 0; i < 64; i++ {
			if s.Float64() != ref.Float64() {
				return false
			}
			if s.Intn(64) != ref.Intn(64) { // power-of-two path
				return false
			}
			if s.Intn(1000) != ref.Intn(1000) { // rejection path
				return false
			}
			if s.Int63n(3e18) != ref.Int63n(3e18) { // 64-bit path
				return false
			}
		}
	}
	return true
}

// seedInit reduces a 64-bit seed to the chain's starting value exactly
// as rngSource.Seed does. The result is in [1, 2³¹−2].
func seedInit(seed int64) int32 {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// seedrand is one step of the documented seed chain, x ← 48271·x mod
// 2³¹−1. Seed reads the chain through seedPow instead; recoverCooked
// replays it step by step to strip it from math/rand's state, and
// seedPowers walks it from x = 1 to tabulate the powers of 48271.
func seedrand(x int32) int32 { return int32(mulMod(48271, uint32(x))) }

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], with the
// Mersenne-prime reduction instead of math/rand's two-division Schrage
// split: 2³¹ ≡ 1 mod 2³¹−1, so the product (below 2⁶²) folds with one
// shift-add to at most 2·(2³¹−1) and one conditional subtract finishes
// it. The subtract cannot leave 2³¹−1 itself, since the modulus is
// prime and neither factor is ≡ 0. Both compute the exact residue.
func mulMod(a, b uint32) uint32 {
	p := uint64(a) * uint64(b)
	y := (p & int32max) + (p >> 31)
	if y >= int32max {
		y -= int32max
	}
	return uint32(y)
}

// Source is one deterministic stream. The zero value is not seeded;
// call Seed before drawing. Not safe for concurrent use. Copying a
// seeded Source forks the stream.
type Source struct {
	vec       [rngLen]uint64
	tap, feed int32

	// fb delegates every draw to math/rand when the init-time
	// verification failed; nil on the fast path.
	fb *rand.Rand
}

// Seed resets the stream to the deterministic state for seed —
// equivalent to replacing the source with rand.NewSource(seed).
// It allocates nothing on the fast path.
func (s *Source) Seed(seed int64) {
	if !cookedOK {
		s.fb = rand.New(rand.NewSource(seed))
		return
	}
	s.seedDirect(seed)
}

// seedDirect is the pure-Go replica of rngSource.Seed over the
// recovered cooked table. State word i takes chain steps
// seedWarmup+3i+1..+3, each x₀ times one power from seedPow, so no
// word waits on the one before it.
func (s *Source) seedDirect(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := uint32(seedInit(seed))
	for i := range s.vec {
		pw := &seedPow[i]
		u := uint64(mulMod(pw[0], x))<<40 ^
			uint64(mulMod(pw[1], x))<<20 ^
			uint64(mulMod(pw[2], x))
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64 uniform bits.
func (s *Source) Uint64() uint64 {
	if s.fb != nil {
		return s.fb.Uint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns a non-negative 63-bit draw.
func (s *Source) Int63() int64 {
	if s.fb != nil {
		return s.fb.Int63()
	}
	return int64(s.Uint64() & rngMask)
}

// Int31 returns a non-negative 31-bit draw.
func (s *Source) Int31() int32 { return int32(s.Int63() >> 32) }

// Float64 returns a uniform draw in [0, 1), replicating rand.Rand's
// resample-on-1.0 value stream.
func (s *Source) Float64() float64 {
	if s.fb != nil {
		return s.fb.Float64()
	}
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Float64s fills dst with the next len(dst) Float64 draws, in order:
// the same values, resamples included, as that many Float64 calls,
// with the lag indices held in locals across the fill instead of
// stored back per draw.
func (s *Source) Float64s(dst []float64) {
	if s.fb != nil {
		for i := range dst {
			dst[i] = s.fb.Float64()
		}
		return
	}
	tap, feed := s.tap, s.feed
	for i := 0; i < len(dst); {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := s.vec[feed] + s.vec[tap]
		s.vec[feed] = x
		if f := float64(int64(x&rngMask)) / (1 << 63); f != 1 {
			dst[i] = f
			i++
		}
	}
	s.tap, s.feed = tap, feed
}

// Int31n returns a uniform draw in [0, n), replicating rand.Rand's
// power-of-two mask and modulo-rejection paths. n must be positive.
func (s *Source) Int31n(n int32) int32 {
	if s.fb != nil {
		return s.fb.Int31n(n)
	}
	if n&(n-1) == 0 {
		return s.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.Int31()
	for v > max {
		v = s.Int31()
	}
	return v % n
}

// Int63n returns a uniform draw in [0, n). n must be positive.
func (s *Source) Int63n(n int64) int64 {
	if s.fb != nil {
		return s.fb.Int63n(n)
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (s *Source) Intn(n int) int {
	if s.fb != nil {
		return s.fb.Intn(n)
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}
