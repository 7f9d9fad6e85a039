package faults

// Differential check for the sparse fault-map fast path: injectSparse
// batches its raw SplitMix64 draws ahead of the float math, and the
// contract is that batching is observationally invisible. The
// one-at-a-time form is frozen below as the reference, and
// FuzzSamplerBatched holds the batched production path to identical
// maps. CI runs it under -race (make diff-race).

import (
	"math"
	"reflect"
	"testing"

	"vccmin/internal/geom"
)

// refSparseOneAtATime recomputes a sparse map drawing one SplitMix64
// value per geometric gap — no raw-draw batching — with the exact float
// pipeline of injectSparse. FuzzSamplerBatched holds the batched
// production path to this stream.
func refSparseOneAtATime(g geom.Geometry, wordBits int, pfail float64, seed int64) *Map {
	m := NewEmpty(g, wordBits)
	if pfail <= 0 {
		return m
	}
	total := g.TotalCells()
	if pfail >= 1 {
		for i := 0; i < total; i++ {
			m.addFault(i)
		}
		return m
	}
	st := sparseStream{state: uint64(seed)}
	logQ := math.Log1p(-pfail)
	cell := -1
	for {
		u := st.float64()
		if u == 0 {
			u = 0x1p-53
		}
		cell += 1 + int(fastLog(u)/logQ)
		if cell >= total || cell < 0 {
			return m
		}
		m.addFault(cell)
	}
}

func FuzzSamplerBatched(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		f.Add(seed, uint16(10))
	}
	f.Add(int64(7), uint16(0))
	f.Add(int64(7), uint16(1000))
	g := geom.MustNew(32<<10, 8, 64)
	f.Fuzz(func(t *testing.T, seed int64, pfailMille uint16) {
		pfail := float64(pfailMille%1001) / 1000 // [0, 1]
		var s Sampler
		got := s.Draw(g, 32, pfail, seed)
		want := refSparseOneAtATime(g, 32, pfail, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pfail=%v seed=%d: batched sparse draw differs from one-at-a-time reference", pfail, seed)
		}
	})
}
