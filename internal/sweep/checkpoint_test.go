package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceReadRows is the frozen scanner-based ReadRows that predates
// the Checkpoint reader: a bufio.Scanner capped at 1 MiB lines, blank
// lines skipped, and a final line without a newline parsed like any
// other. ReadRows must match it on every input whose lines fit the cap.
func referenceReadRows(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var rows []Row
	for ln := 1; sc.Scan(); ln++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", ln, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// sameReadRows reports whether two ReadRows answers agree: the same
// rows, or errors with the same text.
func sameReadRows(rows []Row, err error, ref []Row, refErr error) bool {
	if (err == nil) != (refErr == nil) {
		return false
	}
	if err != nil {
		return err.Error() == refErr.Error()
	}
	if len(rows) != len(ref) {
		return false
	}
	for i := range rows {
		if rows[i] != ref[i] {
			return false
		}
	}
	return true
}

// TestReadRowsDifferential holds ReadRows to the frozen scanner reader
// over the fuzz seeds and a table of framing cases.
func TestReadRowsDifferential(t *testing.T) {
	row := strings.TrimSuffix(fuzzRowLine("pfail=0.001;scheme=block-disable", 0), "\n")
	other := strings.TrimSuffix(fuzzRowLine("pfail=0.002;scheme=baseline", 1), "\n")
	inputs := fuzzSeedInputs()
	for _, in := range []string{
		"\n",
		"\n\n\n",
		row + "\n\n" + other + "\n",              // blank line
		row + "\r\n" + other + "\r\n",            // CRLF
		row + "\r\n\r\n" + other,                 // CRLF blank, unterminated last
		"  \t \n" + row + "\n \n",                // whitespace-only lines
		"\r\n",                                   // a lone CR line
		" \u0085\n" + row + "\n",                 // Unicode whitespace line
		"  " + row + "  \n",                      // padded row
		row + "\n" + other,                       // unterminated complete
		row + "\n" + other[:len(other)/2],        // unterminated torn
		row + "\n   ",                            // unterminated whitespace
		row + "\n" + other[:len(other)/2] + "\n", // corrupt complete line
		"{}\n" + row + "\n",                      // empty object
		"[1,2]\n",                                // wrong JSON type
		row + row + "\n",                         // two rows fused on one line
		"\n\n" + row + "\nnot json\n" + other + "\n", // corrupt line numbered after blanks
		"\x00\n",
		"\xff\xfe\n",
		row + "\n" + strings.Repeat("x", 70_000) + "\n", // a line past bufio's buffer
		`{"key":"` + strings.Repeat("k", 300_000) + `","index":3}` + "\n",
	} {
		inputs = append(inputs, []byte(in))
	}
	for i, in := range inputs {
		rows, err := ReadRows(bytes.NewReader(in))
		ref, refErr := referenceReadRows(bytes.NewReader(in))
		if !sameReadRows(rows, err, ref, refErr) {
			t.Errorf("input %d (%.60q): ReadRows %d rows, err %v; reference %d rows, err %v",
				i, in, len(rows), err, len(ref), refErr)
		}
	}
}

// TestReadRowsLongLine: a row over the old scanner's 1 MiB cap reads, as
// resume always read it.
func TestReadRowsLongLine(t *testing.T) {
	key := strings.Repeat("k", 2<<20)
	in := fuzzRowLine("short", 0) + fuzzRowLine(key, 1)
	if _, err := referenceReadRows(strings.NewReader(in)); err == nil {
		t.Fatal("the reference read a 2 MiB line; the case no longer shows the cap")
	}
	rows, err := ReadRows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Key != key {
		t.Fatalf("read %d rows, want the 2 MiB row second", len(rows))
	}
}

// drain reads every complete line available now, copying each.
func drain(t *testing.T, ck *Checkpoint) []string {
	t.Helper()
	var lines []string
	for {
		line, err := ck.Next()
		if err != nil {
			t.Fatal(err)
		}
		if line == nil {
			return lines
		}
		lines = append(lines, string(line))
	}
}

// TestCheckpointFraming: complete lines come back byte for byte, CRLF
// and padding included; blank, whitespace-only and CR-only lines are
// skipped but counted; a line longer than the read buffer comes back
// whole; the bytes after the last newline are the torn tail.
func TestCheckpointFraming(t *testing.T) {
	long := `{"key":"` + strings.Repeat("k", 2<<20) + `"}` + "\n"
	in := "\n" + // 1 blank
		"a\r\n" + // 2 CRLF
		"  \t \n" + // 3 whitespace-only
		"\r\n" + // 4 CR only
		"  b  \n" + // 5 padded
		long + // 6 over 1 MiB
		"\n" + // 7 blank
		"torn"
	ck := NewCheckpoint(strings.NewReader(in))
	want := []struct {
		line string
		ln   int
	}{{"a\r\n", 2}, {"  b  \n", 5}, {long, 6}}
	for _, w := range want {
		line, err := ck.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != w.line || ck.Line() != w.ln {
			t.Fatalf("line %d: got %.20q (line %d), want %.20q", w.ln, line, ck.Line(), w.line)
		}
	}
	if line, err := ck.Next(); line != nil || err != nil {
		t.Fatalf("past the last complete line: %.20q, %v", line, err)
	}
	if ck.Line() != 7 {
		t.Fatalf("counted %d lines, want 7", ck.Line())
	}
	if ck.Valid() != int64(len(in)-len("torn")) || string(ck.Torn()) != "torn" {
		t.Fatalf("valid %d torn %q, want %d and %q", ck.Valid(), ck.Torn(), len(in)-len("torn"), "torn")
	}
}

// TestCheckpointTail: over a file still being appended to, half a line
// reads as nothing yet, and the rest completes it — for a short line
// and for one longer than the read buffer.
func TestCheckpointTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ck := NewCheckpoint(r)

	if lines := drain(t, ck); len(lines) != 0 {
		t.Fatalf("empty file gave %q", lines)
	}
	var valid int64
	for _, line := range []string{
		fuzzRowLine("first", 0),
		fuzzRowLine(strings.Repeat("k", 2<<20), 1),
	} {
		half := len(line) / 2
		w.WriteString(line[:half])
		if lines := drain(t, ck); len(lines) != 0 {
			t.Fatalf("half a line gave %d lines", len(lines))
		}
		if ck.Valid() != valid || len(ck.Torn()) != half {
			t.Fatalf("after half a line: valid %d torn %d, want %d and %d", ck.Valid(), len(ck.Torn()), valid, half)
		}
		w.WriteString(line[half:])
		lines := drain(t, ck)
		if len(lines) != 1 || lines[0] != line {
			t.Fatalf("the rest of the line gave %d lines", len(lines))
		}
		valid += int64(len(line))
		if ck.Valid() != valid || len(ck.Torn()) != 0 {
			t.Fatalf("after the whole line: valid %d torn %d, want %d and 0", ck.Valid(), len(ck.Torn()), valid)
		}
	}
	// A blank line appended later is consumed but returns nothing.
	w.WriteString(" \n")
	if lines := drain(t, ck); len(lines) != 0 || ck.Valid() != valid+2 {
		t.Fatalf("blank line gave %q, valid %d", lines, ck.Valid())
	}
}
