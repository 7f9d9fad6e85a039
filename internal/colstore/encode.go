package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// magic is the colv1 stream-version header. Any layout change bumps it
// and old shards become refusable, exactly like the sweep engine's
// sparse-v1 row stream.
const magic = "colv1\x00"

// Column payload kinds, one byte each in the footer. classFloat columns
// carry kindFloatRaw or kindFloatDict depending on the adaptive rule;
// every other class maps to exactly one kind.
const (
	kindInt       byte = 'i' // zigzag-delta varints
	kindStr       byte = 's' // dictionary + varint indices
	kindFloatRaw  byte = 'f' // 8 bytes of IEEE-754 bits per row, little-endian
	kindFloatDict byte = 'd' // float dictionary + varint indices
	kindOpt       byte = 'o' // presence bitmap + raw bits for present rows
)

// maxFloatDict bounds the adaptive float dictionary. Axis-like float
// columns (pfail, voltage, frequency) have a handful of distinct values
// per shard; measurement columns have ~rows of them and stay raw.
const maxFloatDict = 255

// useFloatDict is the adaptive encoding rule: dictionary-encode when the
// distinct count is small and the dictionary (8 bytes per entry plus
// one index byte per row) beats raw bits (8 bytes per row). It is a
// pure function of the values, which is what makes re-encoding a
// decoded shard byte-identical; the decoder enforces the same rule in
// reverse, refusing a shard whose representation the encoder would not
// have chosen.
func useFloatDict(distinct, rows int) bool {
	return distinct <= maxFloatDict && 8*distinct < 7*rows
}

// zigzag maps signed to unsigned so small-magnitude deltas of either
// sign stay short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// colPlan is one column's encoding, settled before any byte is written:
// its kind, its exact payload size and, for a dictionary-encoded float
// column, the dictionary and its value-to-index map.
type colPlan struct {
	kind byte
	size int
	dict []uint64
	ids  map[uint64]uint32
}

// plan settles column def's kind and exact payload size.
func (s *Shard) plan(def colDef) colPlan {
	switch def.class {
	case classInt:
		size, prev := 0, int64(0)
		for _, v := range s.ints[def.name] {
			size += uvarintLen(zigzag(v - prev))
			prev = v
		}
		return colPlan{kind: kindInt, size: size}
	case classStr:
		col := s.strs[def.name]
		size := uvarintLen(uint64(len(col.dict)))
		for _, v := range col.dict {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		for _, id := range col.idx {
			size += uvarintLen(uint64(id))
		}
		return colPlan{kind: kindStr, size: size}
	case classFloat:
		vals := s.floats[def.name]
		if dict, ids, idxSize, ok := floatDict(vals); ok && useFloatDict(len(dict), len(vals)) {
			return colPlan{kind: kindFloatDict, size: uvarintLen(uint64(len(dict))) + 8*len(dict) + idxSize, dict: dict, ids: ids}
		}
		return colPlan{kind: kindFloatRaw, size: 8 * len(vals)}
	default: // classOpt
		size := (s.rows + 7) / 8
		for _, p := range s.opts[def.name].present {
			if p {
				size += 8
			}
		}
		return colPlan{kind: kindOpt, size: size}
	}
}

// appendPayload appends column def's payload, encoded as p says.
func (s *Shard) appendPayload(b []byte, def colDef, p *colPlan) []byte {
	switch p.kind {
	case kindInt:
		prev := int64(0)
		for _, v := range s.ints[def.name] {
			b = binary.AppendUvarint(b, zigzag(v-prev))
			prev = v
		}
	case kindStr:
		col := s.strs[def.name]
		b = binary.AppendUvarint(b, uint64(len(col.dict)))
		for _, v := range col.dict {
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
		for _, id := range col.idx {
			b = binary.AppendUvarint(b, uint64(id))
		}
	case kindFloatDict:
		b = binary.AppendUvarint(b, uint64(len(p.dict)))
		for _, v := range p.dict {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		last, lastID := p.dict[0], uint32(0)
		for _, v := range s.floats[def.name] {
			if u := math.Float64bits(v); u != last {
				last, lastID = u, p.ids[u]
			}
			b = binary.AppendUvarint(b, uint64(lastID))
		}
	case kindFloatRaw:
		for _, v := range s.floats[def.name] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case kindOpt:
		col := s.opts[def.name]
		bitmap := len(b)
		b = append(b, make([]byte, (s.rows+7)/8)...)
		for r, present := range col.present {
			if present {
				b[bitmap+r/8] |= 1 << (r % 8)
			}
		}
		for r, present := range col.present {
			if present {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col.vals[r]))
			}
		}
	}
	return b
}

// EncodeBytes serializes the shard into its canonical colv1 bytes.
// Encoding is deterministic: the same rows always produce the same
// bytes, no matter which entrypoint, worker count or shard layout
// produced the rows. Every column's encoding and size is settled first,
// so the output is allocated once at its exact final length.
func (s *Shard) EncodeBytes() []byte {
	plans := make([]colPlan, len(schema))
	body := 0
	for i, def := range schema {
		plans[i] = s.plan(def)
		body += plans[i].size
	}
	footer := uvarintLen(uint64(s.rows)) + uvarintLen(uint64(len(schema)))
	off := 0
	for i, def := range schema {
		footer += uvarintLen(uint64(len(def.name))) + len(def.name) + 1 +
			uvarintLen(uint64(off)) + uvarintLen(uint64(plans[i].size))
		off += plans[i].size
	}

	buf := make([]byte, 0, len(magic)+body+footer+8)
	buf = append(buf, magic...)
	for i, def := range schema {
		start := len(buf)
		buf = s.appendPayload(buf, def, &plans[i])
		// The footer records what was written; the plan only sized it.
		plans[i].size = len(buf) - start
	}
	footerStart := uint64(len(buf))
	buf = binary.AppendUvarint(buf, uint64(s.rows))
	buf = binary.AppendUvarint(buf, uint64(len(schema)))
	off = 0
	for i, def := range schema {
		buf = binary.AppendUvarint(buf, uint64(len(def.name)))
		buf = append(buf, def.name...)
		buf = append(buf, plans[i].kind)
		buf = binary.AppendUvarint(buf, uint64(off))
		buf = binary.AppendUvarint(buf, uint64(plans[i].size))
		off += plans[i].size
	}
	return binary.LittleEndian.AppendUint64(buf, footerStart)
}

// floatDict builds a first-appearance dictionary over the values' bit
// patterns (bits, not float equality: -0 and 0 stay distinct and NaN
// payloads survive), returning the dictionary, its value-to-index map
// and the encoded size of the per-row indices. It bails out (ok=false)
// as soon as the distinct count exceeds maxFloatDict — measurement
// columns have ~rows distinct values and must not pay for a full
// dictionary pass, or a rows-long index, they will never use.
func floatDict(vals []float64) (dict []uint64, ids map[uint64]uint32, idxSize int, ok bool) {
	dict = make([]uint64, 0, 16)
	ids = make(map[uint64]uint32, 16)
	var last uint64
	var lastID uint32
	for i, v := range vals {
		u := math.Float64bits(v)
		if i == 0 || u != last {
			id, seen := ids[u]
			if !seen {
				if len(dict) == maxFloatDict {
					return nil, nil, 0, false
				}
				id = uint32(len(dict))
				ids[u] = id
				dict = append(dict, u)
			}
			last, lastID = u, id
		}
		idxSize += uvarintLen(uint64(lastID))
	}
	return dict, ids, idxSize, true
}
