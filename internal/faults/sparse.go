package faults

// Sparse fault-map sampling — the fast path behind every Monte Carlo layer.
//
// Generate already skips geometrically, so its cost is proportional to the
// number of faults rather than the number of cells; what it still pays per
// fault is math/rand's interface-dispatched draw, math.Log, and two 64-bit
// integer divisions in addFault — and per map, a lagged-Fibonacci Seed that
// touches ~607 words before the first draw plus a fresh Blocks allocation.
// At the paper's regime (pfail 1e-4..1e-3, a few hundred faults per L1
// map) those fixed and per-fault costs dominate end-to-end Monte Carlo
// time.
//
// The sparse path removes each of them:
//
//   - the RNG is a SplitMix64 stream (O(1) seeding, three multiplies per
//     draw — the same mixer DeriveSeed uses);
//   - math.Log is replaced by an atanh-series polynomial, inlined by
//     hand, accurate to ~1.1e-7 absolute, far below the one-cell
//     granularity the geometric gap is floored to (unguarded, unlike
//     GapSampler: the sparse family owns its stream, which depends on
//     this polynomial's exact bits). Its reference copy, fastLog, lives
//     in fastlog_test.go with its bound and accuracy test;
//   - the block index is recovered with one float multiply by the
//     precomputed reciprocal of cells-per-block (plus an exactness
//     correction) instead of div+mod;
//   - Sampler reuses one Map allocation across draws, clearing only the
//     blocks the previous draw marked faulty, so steady-state drawing is
//     allocation-free and clearing is O(faults), not O(blocks).
//
// The sparse generators produce the exact same *Map / BlockFaults shape as
// Generate and the same per-cell Bernoulli(pfail) marginal distribution,
// but a DIFFERENT random stream: a map drawn sparse at some seed is not
// byte-identical to Generate on rand.NewSource(seed). Within the sparse
// family the streams are deterministic, and GenerateMapSparse equals the
// I side of GeneratePairSparse at the same seed.

import (
	"math"

	"vccmin/internal/geom"
)

// sparseStream is a SplitMix64 generator (Steele et al.): a Weyl sequence
// finished by the avalanche mixer from seed.go. Seeding is a single store.
type sparseStream struct{ state uint64 }

// next returns the stream's next 64 uniform bits.
func (s *sparseStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *sparseStream) float64() float64 {
	return float64(s.next()>>11) * 0x1p-53
}

// injectSparse injects Bernoulli(pfail) faults into the empty (or reset)
// map m by geometric gap sampling on the stream; with track set it
// appends one dirty record per fault — block<<3 | pair-mask word — so
// Sampler can undo exactly the stores each fault made. It is addFault
// with the per-map constants hoisted and the divisions replaced by a
// reciprocal multiply (exactness restored by a ±1 correction).
func injectSparse(m *Map, pfail float64, st *sparseStream, dirty []int32, track bool) []int32 {
	if pfail <= 0 {
		return dirty
	}
	total := m.Geom.TotalCells()
	if pfail >= 1 {
		for i := 0; i < total; i++ {
			m.addFault(i)
		}
		if track {
			// Saturated maps dirty every pair-mask word of every block.
			for b := range m.Blocks {
				for w := int32(0); w < 8; w++ {
					dirty = append(dirty, int32(b)<<3|w)
				}
			}
		}
		return dirty
	}
	var (
		k        = m.Geom.CellsPerBlock()
		invK     = 1 / float64(k)
		dataBits = m.Geom.DataBits()
		wordBits = m.WordBits
		invLogQ  = 1 / math.Log1p(-pfail)
		cell     = -1
		raws     [32]uint64
		gaps     [32]int
	)
	// Gaps are drawn in batches, and the raw SplitMix64 draws are batched
	// ahead of the float math: the integer-only fill loop is a pure
	// three-multiply recurrence the CPU pipelines back to back, and the
	// float loop then runs its log chains with no generator state updates
	// interleaved — together ~35% faster than fusing sampling and map
	// updates in one loop. The stream cost of a batch's unused tail draws
	// at map end is noise, and determinism is unaffected — the draw count
	// is a pure function of the seed (FuzzSamplerBatched pins the batched
	// stream to the one-at-a-time reference).
	for {
		for j := range raws {
			raws[j] = st.next()
		}
		for j := range gaps {
			u := float64(raws[j]>>11) * 0x1p-53
			if u == 0 {
				u = 0x1p-53
			}
			// fastLog(u), inlined by hand — see fastlog_test.go.
			ubits := math.Float64bits(u)
			e := float64(int((ubits>>52)&0x7ff) - 1023)
			mant := math.Float64frombits((ubits & 0x000fffffffffffff) | 0x3ff0000000000000)
			z := (mant - 1) / (mant + 1)
			z2 := float64(z * z)
			p := float64(1.0/9 + z2*(1.0/11))
			p = float64(1.0/7 + z2*p)
			p = float64(1.0/5 + z2*p)
			p = float64(1.0/3 + z2*p)
			p = float64(1 + z2*p)
			logU := float64(e*ln2) + float64(2*z*p)
			gaps[j] = 1 + int(logU*invLogQ)
		}
		for _, g := range gaps {
			cell += g
			if cell >= total || cell < 0 { // < 0 guards int overflow on absurd skips
				return dirty
			}
			block := int(float64(cell) * invK)
			if block*k > cell {
				block--
			} else if (block+1)*k <= cell {
				block++
			}
			bf := &m.Blocks[block]
			pairWord := 0
			if offset := cell - block*k; offset < dataBits {
				bf.WordMask |= 1 << uint(offset/wordBits)
				pair := offset >> 1
				pairWord = pair >> 6
				bf.PairMask[pairWord] |= 1 << uint(pair&63)
			} else {
				bf.TagFaulty = true
			}
			bf.Cells++
			m.Total++
			m.faulty[block>>6] |= 1 << uint(block&63)
			if track {
				// Appending without deduplicating keeps this branch
				// perfectly predicted; Sampler's clear is idempotent per
				// record.
				dirty = append(dirty, int32(block<<3|pairWord))
			}
		}
	}
}

// GenerateMapSparse draws a uniform fault map from one seed on the sparse
// fast path. Same output shape and marginal distribution as Generate,
// different (sparse-family) random stream; the map equals the I side of
// GeneratePairSparse at the same seed.
func GenerateMapSparse(g geom.Geometry, wordBits int, pfail float64, seed int64) *Map {
	m := NewEmpty(g, wordBits)
	st := sparseStream{state: uint64(seed)}
	injectSparse(m, pfail, &st, nil, false)
	return m
}

// GeneratePairSparse draws an I/D map pair from a single seed on the
// sparse fast path: the I map consumes the stream prefix, the D map the
// suffix.
func GeneratePairSparse(ig, dg geom.Geometry, wordBits int, pfail float64, seed int64) Pair {
	st := sparseStream{state: uint64(seed)}
	i := NewEmpty(ig, wordBits)
	injectSparse(i, pfail, &st, nil, false)
	d := NewEmpty(dg, wordBits)
	injectSparse(d, pfail, &st, nil, false)
	return Pair{I: i, D: d}
}

// Sampler amortizes fault-map allocations across Monte Carlo draws: it
// owns one Map buffer and one dirty record per fault of the previous
// draw, so a steady-state Draw allocates nothing and resets in time
// proportional to the previous draw's fault count. A Sampler is not safe
// for concurrent use; give each worker goroutine its own.
type Sampler struct {
	m     *Map
	dirty []int32 // block<<3 | pair-mask word, one per fault of the last draw
}

// Draw returns the fault map for (g, wordBits, pfail, seed), reusing the
// sampler's buffer when the geometry and word size match the previous
// draw. The returned map is byte-identical to GenerateMapSparse at the
// same parameters, and ALIASES the sampler: it is valid until the next
// Draw.
func (s *Sampler) Draw(g geom.Geometry, wordBits int, pfail float64, seed int64) *Map {
	if s.m == nil || s.m.Geom != g || s.m.WordBits != wordBits || len(s.m.Blocks) != g.Blocks() {
		s.m = NewEmpty(g, wordBits)
	} else if s.m.Total != 0 {
		for _, e := range s.dirty {
			block := e >> 3
			bf := &s.m.Blocks[block]
			bf.WordMask = 0
			bf.TagFaulty = false
			bf.Cells = 0
			bf.PairMask[e&7] = 0
			s.m.faulty[block>>6] &^= 1 << uint(block&63)
		}
		s.m.Total = 0
	}
	st := sparseStream{state: uint64(seed)}
	s.dirty = injectSparse(s.m, pfail, &st, s.dirty[:0], true)
	return s.m
}
