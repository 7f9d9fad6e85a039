package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// ErrBadMagic reports a shard whose header is not colv1 — a future
// stream break or a file that is not a colstore shard at all. Callers
// branch on it the way the sweep engine branches on a stream-version
// mismatch: refuse and re-fold, never half-read.
var ErrBadMagic = errors.New("colstore: not a colv1 shard")

// Decode parses canonical colv1 bytes back into a shard. It accepts
// exactly the encoder's output: every varint must be minimal, columns
// must tile the body contiguously in schema order, dictionaries must be
// in first-appearance order with distinct, fully-used entries, and the
// adaptive float rule must match — so a successful decode re-encodes to
// the very same bytes. Arbitrary input fails with an error; it never
// panics, and every allocation is bounded by the input length.
func Decode(data []byte) (*Shard, error) {
	return DecodeColumns(data, nil)
}

// DecodeColumns parses canonical colv1 bytes, materializing only the
// columns named in need (nil means every column — identical to
// Decode). The header, footer, schema, kinds and body tiling are
// validated exactly as Decode validates them; only the payload decode
// of unneeded columns is skipped. A pruned decode therefore accepts
// bytes whose skipped payloads are non-canonical — callers that need
// the full round-trip guarantee (fold, fuzz, re-encode) use Decode;
// the query layer, which never re-encodes, uses this to pay only for
// the columns a spec references.
func DecodeColumns(data []byte, need map[string]bool) (*Shard, error) {
	if err := checkSize(int64(len(data))); err != nil {
		return nil, err
	}
	footerOff, err := footerOffset(int64(len(data)), data[:len(magic)], data[len(data)-8:])
	if err != nil {
		return nil, err
	}
	body := data[len(magic):footerOff]
	l, err := parseLayout(data[footerOff:len(data)-8], uint64(len(body)))
	if err != nil {
		return nil, err
	}
	s := newShard()
	for i, def := range schema {
		if need != nil && !need[def.name] {
			continue
		}
		c := l.cols[i]
		if err := s.decodeColumn(def, c.kind, body[c.off:c.off+c.len], l.rows); err != nil {
			return nil, err
		}
	}
	s.rows = l.rows
	return s, nil
}

// shardReader decodes shard files column by column, reading only each
// file's header, trailer, footer and the needed columns' payloads —
// adjacent needed columns in one read — into one byte buffer. The
// buffer and one Shard's column buffers are reused from one file to
// the next, so a returned shard is valid only until the next read.
type shardReader struct {
	buf   []byte
	shard *Shard
}

// readFile decodes the needed columns of the shard file at path.
func (sr *shardReader) readFile(path string, need map[string]bool) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return sr.read(f, fi.Size(), need)
}

// read decodes the needed columns of the size-byte shard r holds, with
// every check DecodeColumns makes on the same bytes.
func (sr *shardReader) read(r io.ReaderAt, size int64, need map[string]bool) (*Shard, error) {
	if err := checkSize(size); err != nil {
		return nil, err
	}
	frame := sr.grow(len(magic) + 8)
	head, tail := frame[:len(magic)], frame[len(magic):]
	if err := readAt(r, head, 0); err != nil {
		return nil, err
	}
	if err := readAt(r, tail, size-8); err != nil {
		return nil, err
	}
	footerOff, err := footerOffset(size, head, tail)
	if err != nil {
		return nil, err
	}
	footer := sr.grow(int(size - 8 - int64(footerOff)))
	if err := readAt(r, footer, int64(footerOff)); err != nil {
		return nil, err
	}
	l, err := parseLayout(footer, footerOff-uint64(len(magic)))
	if err != nil {
		return nil, err
	}

	if sr.shard == nil {
		sr.shard = newShard()
	}
	s := sr.shard
	// Read each run of adjacent needed columns in one go and decode it
	// before reading the next, so the buffer holds one run, not all.
	for i := 0; i < len(schema); {
		if !need[schema[i].name] {
			i++
			continue
		}
		start, n := i, 0
		for ; i < len(schema) && need[schema[i].name]; i++ {
			n += int(l.cols[i].len)
		}
		run := sr.grow(n)
		if err := readAt(r, run, int64(len(magic))+int64(l.cols[start].off)); err != nil {
			return nil, err
		}
		for j := start; j < i; j++ {
			c := l.cols[j]
			if err := s.decodeColumn(schema[j], c.kind, run[:c.len], l.rows); err != nil {
				return nil, err
			}
			run = run[c.len:]
		}
	}
	s.rows = l.rows
	return s, nil
}

func (sr *shardReader) grow(n int) []byte {
	sr.buf = resize(sr.buf, n)
	return sr.buf
}

// readAt fills p from r at off; a short read is an error.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("colstore: reading %d bytes at offset %d: %w", len(p), off, err)
}

func newShard() *Shard {
	return &Shard{
		ints:   make(map[string][]int64, len(schema)),
		strs:   make(map[string]strCol, len(schema)),
		floats: make(map[string][]float64, len(schema)),
		fdicts: make(map[string]floatDictCol),
		opts:   make(map[string]optCol, len(schema)),
	}
}

// checkSize refuses an input too short to hold the header and trailer.
func checkSize(size int64) error {
	if size < int64(len(magic)+8) {
		return fmt.Errorf("colstore: %d-byte input shorter than header+trailer", size)
	}
	return nil
}

// footerOffset checks the header of a size-byte shard and returns the
// footer offset its 8-byte trailer tail records.
func footerOffset(size int64, head, tail []byte) (uint64, error) {
	if string(head) != magic {
		return 0, fmt.Errorf("%w (header %q)", ErrBadMagic, head)
	}
	off := binary.LittleEndian.Uint64(tail)
	if off < uint64(len(magic)) || off > uint64(size-8) {
		return 0, fmt.Errorf("colstore: footer offset %d outside [%d,%d]", off, len(magic), size-8)
	}
	return off, nil
}

// extent is one column's entry in the footer: its payload kind and
// where its payload lies in the body.
type extent struct {
	kind     byte
	off, len uint64
}

// layout is a validated footer: the row count and one extent per
// schema column.
type layout struct {
	rows int
	cols []extent
}

// parseLayout validates a footer against a bodyLen-byte body: the row
// count, the schema's names in order, a kind byte that encodes each
// column's schema class, and extents that tile the body exactly.
func parseLayout(footer []byte, bodyLen uint64) (layout, error) {
	fr := &reader{data: footer}
	rowsU, err := fr.uvarint()
	if err != nil {
		return layout{}, fmt.Errorf("colstore: footer row count: %w", err)
	}
	// Every shard has an int column, which costs at least one byte per
	// row, so a row count beyond the body size cannot be satisfied; the
	// early bound keeps later per-column allocations input-bounded.
	if rowsU > bodyLen {
		return layout{}, fmt.Errorf("colstore: row count %d exceeds %d-byte body", rowsU, bodyLen)
	}
	colsU, err := fr.uvarint()
	if err != nil {
		return layout{}, fmt.Errorf("colstore: footer column count: %w", err)
	}
	if colsU != uint64(len(schema)) {
		return layout{}, fmt.Errorf("colstore: %d columns, colv1 schema has %d", colsU, len(schema))
	}
	l := layout{rows: int(rowsU), cols: make([]extent, len(schema))}
	bodyOff := uint64(0)
	for i, def := range schema {
		nameLen, err := fr.uvarint()
		if err != nil {
			return layout{}, fmt.Errorf("colstore: column %s: name length: %w", def.name, err)
		}
		name, err := fr.take(nameLen)
		if err != nil || string(name) != def.name {
			return layout{}, fmt.Errorf("colstore: footer names column %q where the colv1 schema has %q", name, def.name)
		}
		kind, err := fr.byte()
		if err != nil {
			return layout{}, fmt.Errorf("colstore: column %s: kind: %w", def.name, err)
		}
		off, err1 := fr.uvarint()
		length, err2 := fr.uvarint()
		if err1 != nil || err2 != nil {
			return layout{}, fmt.Errorf("colstore: column %s: truncated extent", def.name)
		}
		// Columns tile the body exactly, in schema order: no gaps, no
		// overlaps, no room for bytes the encoder would not have written.
		if off != bodyOff || length > bodyLen-off {
			return layout{}, fmt.Errorf("colstore: column %s extent [%d,+%d) does not tile the %d-byte body at %d",
				def.name, off, length, bodyLen, bodyOff)
		}
		bodyOff = off + length
		if !encodesClass(kind, def.class) {
			return layout{}, fmt.Errorf("colstore: column %s: kind %q does not encode its schema class", def.name, kind)
		}
		l.cols[i] = extent{kind: kind, off: off, len: length}
	}
	if bodyOff != bodyLen {
		return layout{}, fmt.Errorf("colstore: columns cover %d of %d body bytes", bodyOff, bodyLen)
	}
	if fr.off != len(fr.data) {
		return layout{}, fmt.Errorf("colstore: %d trailing footer bytes", len(fr.data)-fr.off)
	}
	return l, nil
}

func encodesClass(kind byte, class colClass) bool {
	switch class {
	case classInt:
		return kind == kindInt
	case classStr:
		return kind == kindStr
	case classFloat:
		return kind == kindFloatRaw || kind == kindFloatDict
	default: // classOpt
		return kind == kindOpt
	}
}

// decodeColumn decodes one column's payload into s, reusing the
// buffers s already holds for that column: a shard decoded again and
// again (the query path's) allocates only when a column outgrows them.
func (s *Shard) decodeColumn(def colDef, kind byte, payload []byte, rows int) error {
	var err error
	switch def.class {
	case classInt:
		s.ints[def.name], err = decodeIntCol(payload, rows, s.ints[def.name])
	case classStr:
		s.strs[def.name], err = decodeStrCol(payload, rows, s.strs[def.name])
	case classFloat:
		fd := s.fdicts[def.name]
		s.floats[def.name], fd, err = decodeFloatCol(payload, rows, kind, s.floats[def.name], fd)
		if fd.idx != nil {
			s.fdicts[def.name] = fd
		} else {
			delete(s.fdicts, def.name)
		}
	default: // classOpt
		s.opts[def.name], err = decodeOptCol(payload, rows, s.opts[def.name])
	}
	if err != nil {
		return fmt.Errorf("colstore: column %s: %w", def.name, err)
	}
	return nil
}

// resize returns b with length n, reusing its backing array when it is
// large enough. The reused elements keep their old values: callers
// overwrite every one.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// reader walks a byte region with bounds and minimal-varint checking.
type reader struct {
	data []byte
	off  int
}

var (
	errTruncated  = errors.New("truncated")
	errNonMinimal = errors.New("non-minimal varint")
)

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errors.New("varint overflows 64 bits")
	}
	// Canonical form: the final byte of a multi-byte varint must be
	// non-zero, else the same value has a shorter encoding and decode →
	// re-encode would not be byte-identical.
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, errNonMinimal
	}
	r.off += n
	return v, nil
}

// byteVarint consumes a one-byte varint (a value below 128, always
// minimal) if one is next. It is the per-row fast path of the column
// decoders; anything else is left to uvarint.
func (r *reader) byteVarint() (uint64, bool) {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1]), true
	}
	return 0, false
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *reader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.off) {
		return nil, errTruncated
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// decodeIntCol decodes a zigzag-delta varint column into dst's backing
// array when it is large enough.
func decodeIntCol(payload []byte, rows int, dst []int64) ([]int64, error) {
	if len(payload) < rows { // every varint is at least one byte
		return nil, fmt.Errorf("%d bytes for %d values: %w", len(payload), rows, errTruncated)
	}
	r := &reader{data: payload}
	out := resize(dst, rows)
	prev := int64(0)
	for i := range out {
		u, ok := r.byteVarint()
		if !ok {
			var err error
			if u, err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		prev += unzigzag(u)
		out[i] = prev
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%d trailing bytes", len(payload)-r.off)
	}
	return out, nil
}

// decodeStrCol parses a dictionary column, enforcing the canonical
// form: entries distinct, listed in first-appearance order and all
// referenced (an index may never skip ahead of the entries seen so
// far, and the last entry must be reached).
func decodeStrCol(payload []byte, rows int, dst strCol) (strCol, error) {
	r := &reader{data: payload}
	dictN, err := r.uvarint()
	if err != nil {
		return strCol{}, fmt.Errorf("dictionary size: %w", err)
	}
	if dictN > uint64(rows) {
		return strCol{}, fmt.Errorf("%d dictionary entries for %d rows", dictN, rows)
	}
	col := strCol{dict: resize(dst.dict, int(dictN))[:0]}
	seen := make(map[string]bool, dictN)
	for i := uint64(0); i < dictN; i++ {
		n, err := r.uvarint()
		if err != nil {
			return strCol{}, fmt.Errorf("entry %d length: %w", i, err)
		}
		b, err := r.take(n)
		if err != nil {
			return strCol{}, fmt.Errorf("entry %d: %w", i, err)
		}
		v := string(b)
		if seen[v] {
			return strCol{}, fmt.Errorf("duplicate dictionary entry %q", v)
		}
		seen[v] = true
		col.dict = append(col.dict, v)
	}
	idx, err := decodeDictIndices(r, rows, uint64(len(col.dict)), dst.idx)
	if err != nil {
		return strCol{}, err
	}
	col.idx = idx
	return col, nil
}

// decodeDictIndices reads rows dictionary indices and checks canonical
// first-appearance order: index i may appear only after every index
// below i has, and every entry must be used.
func decodeDictIndices(r *reader, rows int, dictN uint64, dst []uint32) ([]uint32, error) {
	idx := resize(dst, rows)
	nextNew := uint64(0)
	for i := range idx {
		u, ok := r.byteVarint()
		if !ok {
			var err error
			if u, err = r.uvarint(); err != nil {
				return nil, fmt.Errorf("index %d: %w", i, err)
			}
		}
		if u > nextNew {
			return nil, fmt.Errorf("index %d references entry %d before entry %d appeared", i, u, nextNew)
		}
		if u == nextNew {
			nextNew++
		}
		idx[i] = uint32(u)
	}
	if nextNew != dictN {
		return nil, fmt.Errorf("%d of %d dictionary entries unused", dictN-nextNew, dictN)
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%d trailing bytes", len(r.data)-r.off)
	}
	return idx, nil
}

// decodeFloatCol decodes a float column into dst's backing array when
// it is large enough. A dictionary-encoded column also returns its
// dictionary and per-row indices (reusing fd's arrays), so the query
// layer can use the indices as shard-local ids; a raw column returns a
// zero floatDictCol.
func decodeFloatCol(payload []byte, rows int, kind byte, dst []float64, fd floatDictCol) ([]float64, floatDictCol, error) {
	if kind == kindFloatRaw {
		if len(payload) != 8*rows {
			return nil, floatDictCol{}, fmt.Errorf("%d bytes for %d raw float64s", len(payload), rows)
		}
		out := resize(dst, rows)
		distinct := make(map[uint64]bool, maxFloatDict+1)
		for i := range out {
			bits := binary.LittleEndian.Uint64(payload[8*i:])
			out[i] = math.Float64frombits(bits)
			if len(distinct) <= maxFloatDict {
				distinct[bits] = true
			}
		}
		// The adaptive rule is part of the canonical form: values the
		// encoder would have dictionary-encoded may not arrive raw.
		if useFloatDict(len(distinct), rows) {
			return nil, floatDictCol{}, fmt.Errorf("%d distinct values over %d rows must be dictionary-encoded", len(distinct), rows)
		}
		return out, floatDictCol{}, nil
	}
	r := &reader{data: payload}
	dictN, err := r.uvarint()
	if err != nil {
		return nil, floatDictCol{}, fmt.Errorf("dictionary size: %w", err)
	}
	if dictN > maxFloatDict {
		return nil, floatDictCol{}, fmt.Errorf("float dictionary has %d entries, limit %d", dictN, maxFloatDict)
	}
	if !useFloatDict(int(dictN), rows) || dictN == 0 && rows > 0 {
		return nil, floatDictCol{}, fmt.Errorf("%d-entry float dictionary over %d rows violates the adaptive rule", dictN, rows)
	}
	dictBytes, err := r.take(8 * dictN)
	if err != nil {
		return nil, floatDictCol{}, fmt.Errorf("dictionary: %w", err)
	}
	dict := resize(fd.dict, int(dictN))
	seen := make(map[uint64]bool, dictN)
	for i := range dict {
		bits := binary.LittleEndian.Uint64(dictBytes[8*i:])
		if seen[bits] {
			return nil, floatDictCol{}, fmt.Errorf("duplicate float dictionary entry %#x", bits)
		}
		seen[bits] = true
		dict[i] = math.Float64frombits(bits)
	}
	idx, err := decodeDictIndices(r, rows, dictN, fd.idx)
	if err != nil {
		return nil, floatDictCol{}, err
	}
	out := resize(dst, rows)
	for i, id := range idx {
		out[i] = dict[id]
	}
	return out, floatDictCol{dict: dict, idx: idx}, nil
}

// decodeOptCol decodes an optional float column into dst's backing
// arrays when they are large enough; every presence flag is written,
// values only for present rows.
func decodeOptCol(payload []byte, rows int, dst optCol) (optCol, error) {
	bitmapLen := (rows + 7) / 8
	if len(payload) < bitmapLen {
		return optCol{}, fmt.Errorf("%d bytes for a %d-byte presence bitmap: %w", len(payload), bitmapLen, errTruncated)
	}
	bitmap := payload[:bitmapLen]
	col := optCol{present: resize(dst.present, rows), vals: resize(dst.vals, rows)}
	present := 0
	for i := range col.present {
		p := bitmap[i/8]&(1<<(i%8)) != 0
		col.present[i] = p
		if p {
			present++
		}
	}
	// Trailing bits past the last row must be zero — they are the only
	// degrees of freedom the bitmap has, and canonical bytes have none.
	if rows%8 != 0 && bitmap[bitmapLen-1]>>(rows%8) != 0 {
		return optCol{}, errors.New("non-zero trailing presence bits")
	}
	vals := payload[bitmapLen:]
	if len(vals) != 8*present {
		return optCol{}, fmt.Errorf("%d bytes for %d present float64s", len(vals), present)
	}
	vi := 0
	for i := range col.present {
		if col.present[i] {
			col.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*vi:]))
			vi++
		}
	}
	return col, nil
}
