package colstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"vccmin/internal/sweep"
)

// FuzzShardDecode drives Decode with arbitrary bytes. The contract
// under fuzz is total: any input either fails with an error or decodes
// into a shard whose re-encoding is byte-identical to the input — the
// canonical-form property that makes shard bytes content-addressable.
// Decode never panics, and its allocations are bounded by the input
// length, so hostile inputs cannot OOM the process either. The corpus
// seeds from real encoded shards across the format's shapes: empty,
// classic, DVFS-bearing, and a row count exercising the bitmap's
// partial final byte.
func FuzzShardDecode(f *testing.F) {
	for _, rows := range [][]sweep.Row{
		nil,
		genRows(1, 1, false),
		genRows(64, 2, true),
		genRows(257, 3, false),
		genRows(100, 4, true),
	} {
		s, err := NewShard(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.EncodeBytes())
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), make([]byte, 16)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if re := s.EncodeBytes(); !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical bytes: re-encode is %d bytes, input %d", len(re), len(data))
		}
		// A decodable shard must also materialize and re-shard cleanly:
		// Rows reconstructs canonical keys by construction.
		if rows := s.Rows(); len(rows) != s.rows {
			t.Fatalf("materialized %d rows from a %d-row shard", len(rows), s.rows)
		}
	})
}

// FuzzVarintColumn round-trips the zigzag-delta integer column codec in
// both directions: any int64 sequence encodes to a payload that decodes
// back exactly, and any payload decodeIntCol accepts re-encodes to the
// very same bytes (minimal varints, exact consumption).
func FuzzVarintColumn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 0x01}, uint16(5))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(1))
	f.Add([]byte{}, uint16(0))

	encode := func(vals []int64) []byte {
		var buf []byte
		prev := int64(0)
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, zigzag(v-prev))
			prev = v
		}
		return buf
	}

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Decode direction: accepted payloads are canonical.
		if col, err := decodeIntCol(data, int(n), nil); err == nil {
			if re := encode(col); !bytes.Equal(re, data) {
				t.Fatalf("decodeIntCol accepted a non-canonical payload (%d vs %d bytes)", len(re), len(data))
			}
		}
		// Encode direction: arbitrary values (including delta overflow
		// wrap-around) survive the round trip.
		vals := make([]int64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		back, err := decodeIntCol(encode(vals), len(vals), nil)
		if err != nil {
			t.Fatalf("canonical int column rejected: %v", err)
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("value %d: %d decoded as %d", i, vals[i], back[i])
			}
		}
	})
}

// FuzzAggregate holds aggregate to the frozen reference
// (referenceAggregate) on fuzzed samples. The palette bytes decode to
// up to 256 float64 values, eight little-endian bytes each; each index
// byte draws one sample value from the palette, so a short input can
// spell a long sample with few distinct values (the count table) or
// many (the radix sort); each cut byte is the length of the next
// segment, zero included, and the rest of the sample forms the last.
// The corpus seeds with every boundary shape of
// TestAggregateDifferential small enough to spell this way.
func FuzzAggregate(f *testing.F) {
	for _, sh := range aggregateShapes(rand.New(rand.NewSource(5))) {
		var palette, idx []byte
		ids := map[uint64]byte{}
		for _, v := range sh.vals {
			b := math.Float64bits(v)
			id, ok := ids[b]
			if !ok {
				if len(ids) == 256 {
					break
				}
				id = byte(len(ids))
				ids[b] = id
				palette = binary.LittleEndian.AppendUint64(palette, b)
			}
			idx = append(idx, id)
		}
		if len(idx) == len(sh.vals) {
			f.Add(palette, idx, []byte{})
			f.Add(palette, idx, []byte{0, 40, 0, 0, 7, 200, 1})
		}
	}

	var sc aggScratch
	f.Fuzz(func(t *testing.T, palette, idx, cuts []byte) {
		pal := make([]float64, 0, min(len(palette)/8, 256))
		for i := 0; i+8 <= len(palette) && len(pal) < 256; i += 8 {
			pal = append(pal, math.Float64frombits(binary.LittleEndian.Uint64(palette[i:])))
		}
		if len(pal) == 0 {
			return
		}
		vals := make([]float64, len(idx))
		for i, b := range idx {
			vals[i] = pal[int(b)%len(pal)]
		}
		lens := make([]int, len(cuts))
		for i, c := range cuts {
			lens[i] = int(c)
		}
		if msg := aggregateMismatch(segment(vals, lens), &sc); msg != "" {
			t.Fatalf("%d values in %d segments: %s", len(vals), len(lens)+1, msg)
		}
	})
}
