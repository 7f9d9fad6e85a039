package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// The parallel-executor contract: worker count changes scheduling and
// nothing else. Byte-identical in-order output, checkpoint/resume
// equivalence and clean cancellation must hold at every Workers setting —
// these tests run under -race in CI.

// runWithWorkers runs the test spec with a given per-run worker bound.
func runWithWorkers(t *testing.T, spec Spec, workers int) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(spec, RunOptions{Out: &buf, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestWorkersByteIdentical: serial and saturated pools produce the same
// byte stream, and RunOptions.Workers overrides Spec.Workers.
func TestWorkersByteIdentical(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	serial, sres := runWithWorkers(t, spec, 0) // falls back to Spec.Workers = 1
	if sres.Computed != 8 {
		t.Fatalf("serial run computed %d cells, want 8", sres.Computed)
	}
	for _, workers := range []int{2, 8, 16} {
		parallel, _ := runWithWorkers(t, spec, workers) // overrides Spec.Workers
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("workers=%d stream differs from serial stream", workers)
		}
	}
}

// TestParallelOutputInCellOrder: with a saturated pool, flushed rows
// still appear in strictly increasing cell-index order.
func TestParallelOutputInCellOrder(t *testing.T) {
	spec := testSpec()
	out, _ := runWithWorkers(t, spec, 8)
	lastIndex := -1
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var row Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if row.Index <= lastIndex {
			t.Fatalf("row index %d not after %d: parallel flush broke cell order", row.Index, lastIndex)
		}
		lastIndex = row.Index
	}
}

// TestResumeEquivalenceSerialVsParallel: a checkpoint written serially
// resumes identically under a saturated pool, and vice versa — the
// stitched streams match the uninterrupted serial run byte for byte.
func TestResumeEquivalenceSerialVsParallel(t *testing.T) {
	spec := testSpec()
	full, _ := runWithWorkers(t, spec, 1)
	lines := bytes.SplitAfter(full, []byte("\n"))
	prefix := bytes.Join(lines[:3], nil)

	for _, workers := range []int{1, 8} {
		done, _, err := LoadCompleted(bytes.NewReader(prefix))
		if err != nil {
			t.Fatal(err)
		}
		var rest bytes.Buffer
		res, err := Run(spec, RunOptions{Out: &rest, Completed: done, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped != 3 || res.Computed != 5 {
			t.Fatalf("workers=%d: resume computed %d skipped %d, want 5 and 3", workers, res.Computed, res.Skipped)
		}
		stitched := append(append([]byte{}, prefix...), rest.Bytes()...)
		if !bytes.Equal(stitched, full) {
			t.Fatalf("workers=%d: stitched resume stream differs from serial full run", workers)
		}
	}
}

// TestCancellationMidPool: cancelling the context after the first flushed
// row aborts the run with the context's error while the already-flushed
// output remains a valid in-order checkpoint that a fresh run can resume
// to the exact full stream.
func TestCancellationMidPool(t *testing.T) {
	spec := testSpec()
	full, _ := runWithWorkers(t, spec, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	_, err := Run(spec, RunOptions{
		Out:     &out,
		Workers: 2,
		Context: ctx,
		OnProgress: func(p Progress) {
			if p.Flushed >= 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// The flushed prefix must be a parseable in-order prefix of the full
	// stream with at least the row that triggered cancellation.
	done, valid, err := LoadCompleted(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("cancelled checkpoint unreadable: %v", err)
	}
	if len(done) == 0 {
		t.Fatal("cancelled run flushed no rows before aborting")
	}
	if int64(out.Len()) != valid {
		t.Fatalf("cancelled checkpoint has %d bytes, %d valid: torn tail in flushed output", out.Len(), valid)
	}
	if !bytes.HasPrefix(full, out.Bytes()) {
		t.Fatal("cancelled output is not a prefix of the full stream")
	}

	// Resuming the checkpoint completes to the byte-identical full run.
	var rest bytes.Buffer
	res, err := Run(spec, RunOptions{Out: &rest, Completed: done, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != len(done) || res.Computed != 8-len(done) {
		t.Fatalf("resume after cancel computed %d skipped %d, want %d and %d",
			res.Computed, res.Skipped, 8-len(done), len(done))
	}
	stitched := append(append([]byte{}, out.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(stitched, full) {
		t.Fatal("resume after cancellation diverges from the uninterrupted stream")
	}
}

// failAfter accepts its first n writes into buf and fails every later
// one.
type failAfter struct {
	n   int
	buf bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDiskFull
	}
	w.n--
	return w.buf.Write(p)
}

// TestWriteErrorStopsAtRow: a checkpoint write that fails on row 3
// aborts the run with that error at every worker count, and the output
// holds exactly the rows before it, a valid prefix of the full stream.
func TestWriteErrorStopsAtRow(t *testing.T) {
	spec := testSpec()
	full, _ := runWithWorkers(t, spec, 1)
	for _, workers := range []int{1, 2, 8} {
		out := &failAfter{n: 3}
		if _, err := Run(spec, RunOptions{Out: out, Workers: workers}); !errors.Is(err, errDiskFull) {
			t.Fatalf("workers=%d: err %v, want %v", workers, err, errDiskFull)
		}
		if n := bytes.Count(out.buf.Bytes(), []byte("\n")); n != 3 || !bytes.HasPrefix(full, out.buf.Bytes()) {
			t.Fatalf("workers=%d: %d rows written, want the first 3 rows of the full stream", workers, n)
		}
	}
}
