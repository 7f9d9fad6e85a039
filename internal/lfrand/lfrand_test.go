package lfrand

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Replicated reports whether the fast pure-Go replica is active (true
// on every supported runtime; false means draws delegate to math/rand).
func Replicated() bool { return cookedOK }

// TestReplicated pins the fast path: on every supported Go runtime the
// cooked-table recovery and stream verification must succeed, so a
// wrong seed power table fails here instead of quietly slowing every
// Source down. If this fails after a toolchain upgrade the package
// still behaves correctly (every Source delegates to math/rand), but
// the hot paths lose their speedup — which should be a loud,
// investigated event, not a silent one.
func TestReplicated(t *testing.T) {
	if !Replicated() {
		t.Fatal("lfrand: cooked-table recovery or verification failed; sources are falling back to math/rand")
	}
}

// TestSourceMatchesMathRand is the contract: identical value streams to
// rand.New(rand.NewSource(seed)) for every replicated method, across
// seeds (including the negative and zero seeds Seed canonicalizes) and
// past the lag-607 window where the generator starts feeding back on
// its own output.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 7, 12345, -987654321, 1 << 62} {
		ref := rand.New(rand.NewSource(seed))
		s := New(seed)
		for i := 0; i < 3*607; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
		}
		for i := 0; i < 200; i++ {
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
			if got, want := s.Intn(2), ref.Intn(2); got != want {
				t.Fatalf("seed %d draw %d: Intn(2) = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Intn(77), ref.Intn(77); got != want {
				t.Fatalf("seed %d draw %d: Intn(77) = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Int31n(1000), ref.Int31n(1000); got != want {
				t.Fatalf("seed %d draw %d: Int31n = %d, want %d", seed, i, got, want)
			}
			if got, want := s.Int63n(3<<60), ref.Int63n(3<<60); got != want {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, i, got, want)
			}
		}
	}
}

// mathRandState reads the state rand.NewSource(seed) seeds itself to,
// through reflection as recoverCooked does: the lag-607 vector and the
// tap and feed cursors.
func mathRandState(t testing.TB, seed int64) (vec [rngLen]uint64, tap, feed int32) {
	t.Helper()
	v := reflect.ValueOf(rand.NewSource(seed)).Elem()
	vv := v.FieldByName("vec")
	if !vv.IsValid() || vv.Len() != rngLen {
		t.Fatalf("math/rand source has no %d-word vec field", rngLen)
	}
	for i := range vec {
		vec[i] = uint64(vv.Index(i).Int())
	}
	return vec, int32(v.FieldByName("tap").Int()), int32(v.FieldByName("feed").Int())
}

// checkSeedState requires the state Seed writes for seed to be math/rand's
// own, word for word.
func checkSeedState(t testing.TB, seed int64) {
	t.Helper()
	var s Source
	s.Seed(seed)
	if s.fb != nil {
		t.Fatalf("seed %d: Seed fell back to math/rand", seed)
	}
	vec, tap, feed := mathRandState(t, seed)
	if s.tap != tap || s.feed != feed {
		t.Fatalf("seed %d: tap, feed = %d, %d, want %d, %d", seed, s.tap, s.feed, tap, feed)
	}
	for i := range vec {
		if s.vec[i] != vec[i] {
			t.Fatalf("seed %d: state word %d = %#x, want %#x", seed, i, s.vec[i], vec[i])
		}
	}
}

// seedStateSeeds covers each branch of seedInit the power table relies
// on: 0 and multiples of 2³¹−1 reduce to 0 and start the chain at
// 89482311 (itself a seed here), negative seeds wrap, and the int64
// extremes.
var seedStateSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, 1 << 40,
	math.MinInt64, math.MaxInt64,
}

// TestSeedStateDifferential holds the power-table seeding to
// math/rand's serial chain on the seeds that exercise seedInit.
func TestSeedStateDifferential(t *testing.T) {
	for _, seed := range seedStateSeeds {
		checkSeedState(t, seed)
	}
}

// FuzzSeedState holds the power-table seeding to math/rand's serial
// chain for any int64 seed.
func FuzzSeedState(f *testing.F) {
	for _, seed := range seedStateSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeedState(t, seed) })
}

// TestReseedEqualsFresh proves Seed fully resets the stream: reseeding
// a used Source equals a fresh construction, which is what lets the
// fault-map samplers reuse one Source across Monte Carlo trials.
func TestReseedEqualsFresh(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		s.Int63()
	}
	s.Seed(99)
	fresh := New(99)
	for i := 0; i < 1000; i++ {
		if got, want := s.Int63(), fresh.Int63(); got != want {
			t.Fatalf("draw %d after reseed: %d != %d", i, got, want)
		}
	}
}

// TestSeedAllocs pins the fast path's zero-allocation Seed — the whole
// point of the package for per-trial reseeding.
func TestSeedAllocs(t *testing.T) {
	if !Replicated() {
		t.Skip("fallback mode allocates by design")
	}
	var s Source
	n := testing.AllocsPerRun(100, func() {
		s.Seed(42)
		_ = s.Int63()
	})
	if n != 0 {
		t.Fatalf("Seed+Int63 allocated %v times per run, want 0", n)
	}
}

func BenchmarkSeed(b *testing.B) {
	var s Source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkSeedMathRand(b *testing.B) {
	src := rand.NewSource(0)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

// checkFloat64s fills chunks of the given sizes from a with Float64s and
// draws as many values one at a time from b, which must start in the
// same state; the values, and the states they leave, must agree.
func checkFloat64s(t *testing.T, name string, a, b *Source, sizes ...int) {
	t.Helper()
	for _, n := range sizes {
		got := make([]float64, n)
		a.Float64s(got)
		for i, g := range got {
			if want := b.Float64(); g != want {
				t.Fatalf("%s: chunk of %d, value %d: Float64s = %v, Float64 = %v", name, n, i, g, want)
			}
		}
		if a.vec != b.vec || a.tap != b.tap || a.feed != b.feed {
			t.Fatalf("%s: chunk of %d: Float64s leaves a different state from %d Float64 calls", name, n, n)
		}
	}
}

// TestFloat64sMatchesFloat64: the bulk fill is Float64 repeated — on
// verify()'s seeds, across the lag window, through the resample-on-1.0
// rule and on the math/rand fallback.
func TestFloat64sMatchesFloat64(t *testing.T) {
	sizes := []int{0, 1, 2, 31, 32, 607, 1000, 5}
	for _, seed := range verifySeeds {
		a := New(seed)
		b := *a // copying a seeded Source forks the stream
		checkFloat64s(t, "seed", a, &b, sizes...)
	}

	// Every state word at 2⁶²−1 makes the first draws sum to 2⁶³−2,
	// which Float64 rounds to 1.0 and resamples.
	var a Source
	a.tap, a.feed = 0, rngLen-rngTap
	for i := range a.vec {
		a.vec[i] = 1<<62 - 1 + uint64(i%3)<<40
	}
	probe := a
	if f := float64(probe.Int63()) / (1 << 63); f != 1 {
		t.Fatalf("hand-set state draws %v first, want a 1.0 to resample", f)
	}
	b := a
	checkFloat64s(t, "resample", &a, &b, 1, 64, 700)

	// A Source whose replica failed verification delegates to math/rand.
	for _, seed := range verifySeeds {
		a := Source{fb: rand.New(rand.NewSource(seed))}
		ref, s := rand.New(rand.NewSource(seed)), New(seed)
		got := make([]float64, 1000)
		a.Float64s(got)
		for i, g := range got {
			if want, fast := ref.Float64(), s.Float64(); g != want || g != fast {
				t.Fatalf("fallback seed %d value %d: Float64s = %v, math/rand = %v, replica = %v", seed, i, g, want, fast)
			}
		}
	}
}

func BenchmarkFloat64s(b *testing.B) {
	s := New(1)
	buf := make([]float64, 32)
	var sink float64
	for i := 0; i < b.N; i += len(buf) {
		s.Float64s(buf)
		sink += buf[0]
	}
	_ = sink
}
