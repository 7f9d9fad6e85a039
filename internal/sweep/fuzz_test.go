package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Fuzzing targets the checkpoint's readers: whatever bytes a killed,
// interleaved or corrupted run leaves behind, Checkpoint, ReadRows and
// resume's loader must never panic, and the valid-prefix contract must
// hold — truncating a file to the reported prefix and re-reading it
// yields the same completed-cell set and consumes every byte.

// fuzzRowLine renders a well-formed checkpoint line for seeding.
func fuzzRowLine(key string, index int) string {
	b, _ := json.Marshal(Row{Key: key, Index: index, Stream: StreamVersion, Pfail: 0.001, Scheme: "block-disable"})
	return string(b) + "\n"
}

// fuzzSeedInputs is the seed corpus both fuzz targets start from, and
// part of the input set TestReadRowsDifferential replays.
func fuzzSeedInputs() [][]byte {
	valid := fuzzRowLine("pfail=0.001;geom=32768x8x64;scheme=block-disable;victim=no-victim;gran=block", 0)
	second := fuzzRowLine("pfail=0.002;geom=32768x8x64;scheme=baseline;victim=no-victim;gran=block", 1)
	return [][]byte{
		[]byte(""),
		[]byte(valid),
		[]byte(valid + second),
		[]byte(valid + second[:len(second)/2]),                      // torn tail
		[]byte(valid + "\n\n" + second),                             // blank lines
		[]byte(valid + valid),                                       // duplicate cells
		[]byte(valid + "{\"key\": garbage}\n"),                      // complete corrupt line
		[]byte("not json at all\n" + valid),                         // interleaved garbage first
		[]byte(strings.Repeat(" ", 300) + "\n"),                     // whitespace-only line
		[]byte("{\"key\":\"" + strings.Repeat("k", 2000) + "\"}\n"), // long key
		[]byte("\xff\xfe\x00 binary junk \n" + valid),
	}
}

func fuzzSeeds(f *testing.F) {
	for _, in := range fuzzSeedInputs() {
		f.Add(in)
	}
}

// FuzzLoadCompleted fuzzes how resume loads the completed cells of a
// checkpoint through the Checkpoint reader.
func FuzzLoadCompleted(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reader's framing alone: the complete lines and the torn
		// tail partition the input, and the tail holds no newline.
		ck := NewCheckpoint(bytes.NewReader(data))
		for {
			line, err := ck.Next()
			if err != nil {
				t.Fatalf("reading from memory failed: %v", err)
			}
			if line == nil {
				break
			}
		}
		if got := ck.Valid() + int64(len(ck.Torn())); got != int64(len(data)) {
			t.Fatalf("valid prefix %d + torn tail %d != input %d", ck.Valid(), len(ck.Torn()), len(data))
		}
		if bytes.IndexByte(ck.Torn(), '\n') >= 0 {
			t.Fatalf("torn tail %q holds a newline", ck.Torn())
		}

		done, valid, _, err := readCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if valid != ck.Valid() {
			t.Fatalf("resume's valid prefix %d, the reader's %d", valid, ck.Valid())
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		// The declared prefix must end on a line boundary (or be empty).
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid prefix %d does not end at a newline", valid)
		}
		// Re-reading the truncated prefix must be stable: same set, every
		// byte consumed, no error. This is exactly what resume relies on
		// after truncating a torn file.
		done2, valid2, torn2, err2 := readCheckpoint(bytes.NewReader(data[:valid]))
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-parse: %v", err2)
		}
		if valid2 != valid || torn2 != 0 {
			t.Fatalf("prefix re-read shrank: %d -> %d (+%d torn)", valid, valid2, torn2)
		}
		if len(done2) != len(done) {
			t.Fatalf("completed set changed on re-read: %d -> %d keys", len(done), len(done2))
		}
		for k := range done {
			if _, ok := done2[k]; !ok {
				t.Fatalf("key %q lost on re-read", k)
			}
		}
		// Every complete line in the prefix parsed, so ReadRows must agree.
		rows, err := ReadRows(bytes.NewReader(data[:valid]))
		if err != nil {
			t.Fatalf("ReadRows rejected resume's valid prefix: %v", err)
		}
		if len(rows) < len(done) {
			t.Fatalf("%d rows but %d distinct keys", len(rows), len(done))
		}
	})
}

func FuzzReadRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ReadRows(bytes.NewReader(data))
		// Under the old scanner's 1 MiB line cap, the frozen reference
		// must give the same rows or the same error.
		if len(data) < 1<<20 {
			ref, refErr := referenceReadRows(bytes.NewReader(data))
			if !sameReadRows(rows, err, ref, refErr) {
				t.Fatalf("ReadRows (%d rows, err %v) differs from the reference (%d rows, err %v)", len(rows), err, len(ref), refErr)
			}
		}
		if err != nil {
			return
		}
		// Parsed rows must survive a marshal/parse round trip unchanged —
		// the property the golden corpus and the resume path both lean on.
		var buf bytes.Buffer
		for _, r := range rows {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("row failed to re-marshal: %v", err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		back, err := ReadRows(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(rows) {
			t.Fatalf("round trip changed row count: %d -> %d", len(rows), len(back))
		}
		for i := range rows {
			if back[i] != rows[i] {
				t.Fatalf("row %d changed in round trip:\n%+v\n%+v", i, rows[i], back[i])
			}
		}
	})
}
