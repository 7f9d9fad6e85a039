package colstore

import (
	"bytes"
	"encoding/binary"
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
		if rows := s.Rows(); len(rows) != s.NumRows() {
			t.Fatalf("materialized %d rows from a %d-row shard", len(rows), s.NumRows())
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
