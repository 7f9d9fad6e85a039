package colstore

// The extent-read path: Dir.ShardsColumns reads only a shard file's
// header, trailer, footer and the needed columns' payloads. It must
// refuse exactly what DecodeColumns refuses on the same bytes, name
// the damaged file, never hand back a partial answer, and leave the
// whole-file paths (Dir.Shards, Rows) fully validated.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// payloadExtent returns the absolute byte range of column name's
// payload in the canonical shard bytes enc.
func payloadExtent(t *testing.T, enc []byte, name string) (start, end int) {
	t.Helper()
	footerOff := binary.LittleEndian.Uint64(enc[len(enc)-8:])
	l, err := parseLayout(enc[footerOff:len(enc)-8], footerOff-uint64(len(magic)))
	if err != nil {
		t.Fatal(err)
	}
	for i, def := range schema {
		if def.name == name {
			start = len(magic) + int(l.cols[i].off)
			return start, start + int(l.cols[i].len)
		}
	}
	t.Fatalf("no column %q", name)
	return 0, 0
}

// queryFiles writes each file's bytes as a numbered shard into a fresh
// directory and queries it through OpenDir.
func queryFiles(t *testing.T, q Spec, files ...[]byte) (*Dir, *Result, error) {
	t.Helper()
	dir := t.TempDir()
	for i, b := range files {
		if err := os.WriteFile(filepath.Join(dir, shardFileName(i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(d, q)
	return d, res, err
}

func TestDirExtentReadsDamagedFiles(t *testing.T) {
	enc := mustShard(t, genRows(300, 31, true)).EncodeBytes()
	q := Spec{GroupBy: []string{"scheme"}, Metrics: []string{"mean_ipc"}}
	_, pristine, err := queryFiles(t, q, enc, enc)
	if err != nil {
		t.Fatal(err)
	}
	footerOff := int(binary.LittleEndian.Uint64(enc[len(enc)-8:]))

	pastEOF := append([]byte{}, enc...)
	binary.LittleEndian.PutUint64(pastEOF[len(pastEOF)-8:], uint64(len(enc)))
	damaged := map[string][]byte{
		"zero-length":                 {},
		"shorter than header+trailer": enc[:len(magic)+7],
		"footer offset past EOF":      pastEOF,
	}
	for _, n := range []int{len(magic) + 8, len(enc) / 2, footerOff, footerOff + 1, len(enc) - 9, len(enc) - 8, len(enc) - 1} {
		damaged["truncated to "+strconv.Itoa(n)] = enc[:n]
	}
	for name, b := range damaged {
		// The damaged file is the second shard: the first answers, and
		// the query must still fail as a whole.
		_, res, err := queryFiles(t, q, enc, b)
		if err == nil || res != nil {
			t.Errorf("%s: got result %v, error %v; want no result and an error", name, res, err)
			continue
		}
		if !strings.Contains(err.Error(), "000001.colv1") {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}

	// A flipped dictionary index in the victim column: the pruned decode
	// never reads it, the full decode refuses it.
	_, end := payloadExtent(t, enc, "victim")
	flipped := append([]byte{}, enc...)
	flipped[end-1] ^= 0x41
	d, res, err := queryFiles(t, q, enc, flipped)
	if err != nil {
		t.Fatalf("query not reading the damaged column failed: %v", err)
	}
	gotB, _ := json.Marshal(res)
	wantB, _ := json.Marshal(pristine)
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("query not reading the damaged column answered differently:\n%s\n%s", gotB, wantB)
	}
	withVictim := Spec{Metrics: []string{"mean_ipc"}, Where: map[string]string{"victim": "none"}}
	if res, err := Query(d, withVictim); err == nil || res != nil || !strings.Contains(err.Error(), "000001.colv1") {
		t.Errorf("query reading the damaged column: got result %v, error %v", res, err)
	}
	if _, err := Rows(d); err == nil || !strings.Contains(err.Error(), "000001.colv1") {
		t.Errorf("Rows over the damaged file: error %v, want one naming the file", err)
	}
	if err := d.Shards(func(*Shard) error { return nil }); err == nil {
		t.Error("Dir.Shards accepted the damaged file")
	}
}

// TestShardReaderMatchesDecodeColumns holds the extent reader to
// DecodeColumns on the same bytes: for every single-byte flip and every
// truncation of a small shard, and for several column subsets, both
// fail or both succeed with identical columns. One reader decodes every
// case in turn, so its buffer reuse is exercised across failures too.
func TestShardReaderMatchesDecodeColumns(t *testing.T) {
	enc := mustShard(t, genRows(21, 17, true)).EncodeBytes()
	needs := []map[string]bool{
		{"pfail": true},
		{"scheme": true, "mean_ipc": true},
		{"geom_size": true, "geom_ways": true, "geom_block": true, "dvfs_switches": true},
		{"index": true, "voltage": true, "policy": true, "dvfs_low_share": true},
	}
	var cases [][]byte
	for i := range enc {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x41
		cases = append(cases, mut)
	}
	for n := 0; n < len(enc); n++ {
		cases = append(cases, enc[:n])
	}
	cases = append(cases, enc)
	var sr shardReader
	for _, need := range needs {
		for ci, b := range cases {
			want, werr := DecodeColumns(b, need)
			got, gerr := sr.read(bytes.NewReader(b), int64(len(b)), need)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("case %d need %v: DecodeColumns error %v, extent read error %v", ci, need, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got.NumRows() != want.NumRows() {
				t.Fatalf("case %d: extent read has %d rows, DecodeColumns %d", ci, got.NumRows(), want.NumRows())
			}
			for name := range need {
				if !reflect.DeepEqual(got.ints[name], want.ints[name]) ||
					!reflect.DeepEqual(got.strs[name], want.strs[name]) ||
					!reflect.DeepEqual(got.floats[name], want.floats[name]) ||
					!reflect.DeepEqual(got.fdicts[name], want.fdicts[name]) ||
					!reflect.DeepEqual(got.opts[name], want.opts[name]) {
					t.Fatalf("case %d: column %s differs between extent read and DecodeColumns", ci, name)
				}
			}
		}
	}
}

// TestQueryManyDistinctValues drives the paths a typical sweep never
// reaches: thousands of distinct pfail values (raw-encoded, numbered by
// map) and tens of geometries, so the group-by's id product outgrows
// the dense table and is renumbered. Dir and Mem answers must equal
// the oracle's.
func TestQueryManyDistinctValues(t *testing.T) {
	rows := genRows(20_000, 41, true)
	for i := range rows {
		r := &rows[i]
		r.Pfail = 1e-4 * (1 + float64(i%3000)/1000)
		r.GeomSize = 1024 * (1 + i%40)
		r.Key = testKey(*r)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if err := WriteDir(dir, rows, 5000); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := ShardsOf(rows, 5000)
	if err != nil {
		t.Fatal(err)
	}
	lo := 2e-4
	specs := []Spec{
		{GroupBy: []string{"pfail", "geometry", "scheme"}, Metrics: []string{"mean_ipc"}},
		{GroupBy: []string{"geometry", "pfail"}, Metrics: []string{"dvfs_switches"}, PfailMin: &lo},
		{GroupBy: []string{"scheme", "pfail", "geometry", "victim"}, Metrics: []string{"unfit_trials"},
			Where: map[string]string{"geometry": "1024x8x64", "pfail": "0.0001"}},
	}
	for i, q := range specs {
		want, _ := json.Marshal(oracleQuery(rows, q))
		for name, src := range map[string]Source{"dir": d, "mem": mem} {
			res, err := Query(src, q)
			if err != nil {
				t.Fatalf("%s spec %d: %v", name, i, err)
			}
			if res.Matched == 0 {
				t.Fatalf("%s spec %d matched no rows", name, i)
			}
			got, _ := json.Marshal(res)
			if !bytes.Equal(got, want) {
				t.Errorf("%s spec %d differs from the oracle\n%.300s\n%.300s", name, i, got, want)
			}
		}
	}
}
