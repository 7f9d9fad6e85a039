package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"vccmin/internal/par"
)

// RunOptions configures a sweep execution.
type RunOptions struct {
	// Out receives the computed rows as JSON lines, flushed in cell order
	// as soon as every earlier owned cell has completed — so a killed run
	// leaves a valid resumable prefix. Nil discards the stream.
	Out io.Writer

	// Completed holds cell keys to skip (resume). Build it from a partial
	// output file with LoadCompleted.
	Completed map[string]struct{}

	// Context cancels the run between cells: already-flushed rows remain a
	// valid checkpoint and Run returns the context's error. Nil means
	// context.Background() (never cancelled).
	Context context.Context

	// OnProgress, if set, observes the run after each flushed row. It is
	// called serially, in row order, on the goroutine that flushes — it
	// must be fast (the next row waits for it) and must not call back
	// into the run.
	OnProgress func(Progress)

	// Workers bounds concurrent cell evaluations for this execution,
	// overriding Spec.Workers when positive. Zero falls back to the
	// spec's knob (itself defaulting to GOMAXPROCS). Worker count only
	// changes scheduling: rows stream in cell order and their bytes are
	// identical at every setting.
	Workers int
}

// Progress is a point-in-time view of a run, reported to
// RunOptions.OnProgress after every flushed row.
type Progress struct {
	TotalCells int // full grid size
	ShardCells int // cells owned by this run's shard
	Skipped    int // owned cells skipped up front (resume)
	Flushed    int // rows computed and written so far
}

// Result summarizes one sweep execution (one shard's view).
type Result struct {
	Spec       Spec
	Rows       []Row // rows computed by this run, in cell order
	TotalCells int   // full grid size
	ShardCells int   // cells owned by this shard
	Computed   int
	Skipped    int // owned cells skipped because already completed
	Summary    []AxisSummary

	// Resume bookkeeping, set only by Resume/ResumeFile: how many bytes of
	// the prior checkpoint were a valid row prefix, and how many trailing
	// bytes (a line torn by a kill mid-write) were dropped.
	ResumeValidBytes int64
	ResumeTornBytes  int64
}

// Run evaluates the spec's grid cells owned by its shard, skipping cells
// already in opt.Completed, with opt.Workers (or Spec.Workers) concurrent
// evaluations. Rows stream to opt.Out in cell order. A cell error aborts
// the run and Run returns the error of the lowest failing cell, whatever
// the worker count; every row before that cell is flushed and remains a
// valid checkpoint for resume.
func Run(spec Spec, opt RunOptions) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Check(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = spec.Workers
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}

	all := spec.Cells()
	res := &Result{Spec: spec, TotalCells: len(all)}
	var todo []Cell
	for _, c := range all {
		if !spec.owns(c) {
			continue
		}
		res.ShardCells++
		if _, done := opt.Completed[c.Key()]; done {
			res.Skipped++
			continue
		}
		todo = append(todo, c)
	}

	rows := make([]Row, len(todo))
	evaluate := func(_ struct{}, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		rows[i], err = spec.evaluate(todo[i])
		return err
	}
	// flush writes row i once every earlier row is out, keeping the
	// output a valid in-order checkpoint at all times.
	flush := func(i int) error {
		if opt.Out != nil {
			b, err := json.Marshal(&rows[i])
			if err != nil {
				return err
			}
			if _, err := opt.Out.Write(append(b, '\n')); err != nil {
				return err
			}
		}
		if opt.OnProgress != nil {
			opt.OnProgress(Progress{
				TotalCells: res.TotalCells,
				ShardCells: res.ShardCells,
				Skipped:    res.Skipped,
				Flushed:    i + 1,
			})
		}
		// A cancellation must abort even when every cell already slipped
		// past the pre-evaluation check (tiny grids): stop between rows,
		// leaving the flushed prefix a valid checkpoint.
		return ctx.Err()
	}
	if err := par.Do(len(todo), workers, nil, evaluate, flush); err != nil {
		return nil, err
	}

	res.Rows = rows
	res.Computed = len(rows)
	res.Summary = Summarize(rows)
	return res, nil
}

// ReadRows parses a JSON-lines result stream. Blank (all-whitespace)
// lines are ignored, exactly as LoadCompleted ignores them, so the two
// readers always agree on what a checkpoint contains.
func ReadRows(r io.Reader) ([]Row, error) {
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

// LoadCompleted reads a partial result stream and returns the set of cell
// keys it contains plus the byte length of the valid prefix. A final line
// without a newline (a run killed mid-write) is tolerated and excluded
// from both; callers appending to the file should first truncate it to
// valid. A complete line that fails to parse is real corruption and an
// error.
func LoadCompleted(r io.Reader) (done map[string]struct{}, valid int64, err error) {
	indexed, valid, err := loadCompletedIndexed(r)
	if err != nil {
		return nil, 0, err
	}
	done = make(map[string]struct{}, len(indexed))
	for k := range indexed {
		done[k] = struct{}{}
	}
	return done, valid, nil
}

// loadCompletedIndexed is LoadCompleted keeping each row's grid index,
// so the resume path can verify the checkpoint against the spec's grid.
func loadCompletedIndexed(r io.Reader) (done map[string]int, valid int64, err error) {
	br := bufio.NewReader(r)
	done = map[string]int{}
	for ln := 1; ; ln++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a checkpoint interrupted mid-write.
			return done, valid, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var row Row
			if err := json.Unmarshal(trimmed, &row); err != nil {
				return nil, 0, fmt.Errorf("sweep: line %d: %w", ln, err)
			}
			// Refuse to resume a checkpoint written by an incompatible
			// random-stream family: completing it would silently mix rows
			// from two distributions in one output file. Rerun instead.
			if row.Stream != StreamVersion {
				return nil, 0, fmt.Errorf("sweep: line %d: checkpoint stream %q incompatible with engine stream %q — delete the checkpoint and rerun",
					ln, row.Stream, StreamVersion)
			}
			done[row.Key] = row.Index
		}
		valid += int64(len(line))
	}
}

// checkAgainstGrid verifies that every checkpoint row belongs to the
// spec's grid at the recorded index. A key the grid does not contain, or
// a key whose grid position moved (the spec's axes changed — e.g. a
// policy or pfail value was added), means the checkpoint was written by
// a different spec: completing it would stitch rows with colliding,
// non-monotonic indices into one file. Refuse, like a stream mismatch.
func checkAgainstGrid(spec Spec, done map[string]int) (map[string]struct{}, error) {
	grid := make(map[string]int)
	for _, c := range spec.Cells() {
		grid[c.Key()] = c.Index
	}
	set := make(map[string]struct{}, len(done))
	for key, idx := range done {
		want, ok := grid[key]
		if !ok {
			return nil, fmt.Errorf("sweep: checkpoint cell %q is not in this spec's grid — the checkpoint was written by a different spec; rerun instead of resuming", key)
		}
		if want != idx {
			return nil, fmt.Errorf("sweep: checkpoint cell %q has grid index %d but this spec puts it at %d — the checkpoint was written by a different spec; rerun instead of resuming", key, idx, want)
		}
		set[key] = struct{}{}
	}
	return set, nil
}

// Resume is Run skipping the cells already present in the prior output
// stream read from prev. The result's ResumeValidBytes and
// ResumeTornBytes report how much of the checkpoint was a usable row
// prefix and how many trailing bytes of a line torn by a kill mid-write
// were excluded, so callers can log what was lost. Resume only reads
// prev: a caller appending the new rows to the same file must first
// truncate it to ResumeValidBytes (a torn tail left in place would fuse
// with the first appended row into an unparseable line) — or use
// ResumeFile, which does both. Any Completed set already in opt is
// extended.
func Resume(spec Spec, prev io.Reader, opt RunOptions) (*Result, error) {
	cr := &countingReader{r: prev}
	indexed, valid, err := loadCompletedIndexed(cr)
	if err != nil {
		return nil, err
	}
	done, err := checkAgainstGrid(spec.withDefaults(), indexed)
	if err != nil {
		return nil, err
	}
	if opt.Completed == nil {
		opt.Completed = done
	} else {
		for k := range done {
			opt.Completed[k] = struct{}{}
		}
	}
	res, err := Run(spec, opt)
	if res != nil {
		res.ResumeValidBytes = valid
		res.ResumeTornBytes = cr.n - valid
	}
	return res, err
}

// ResumeFile is Resume checkpointing through a file: cells already
// recorded in path are skipped, a final line torn by a kill mid-write is
// truncated away, and new rows append in cell order on the valid prefix's
// boundary. The file is created if missing. opt.Out and opt.Completed are
// owned by ResumeFile and must be zero.
func ResumeFile(spec Spec, path string, opt RunOptions) (*Result, error) {
	if opt.Out != nil || opt.Completed != nil {
		return nil, fmt.Errorf("sweep: ResumeFile owns Out and Completed")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	indexed, valid, err := loadCompletedIndexed(cr)
	if err != nil {
		return nil, fmt.Errorf("sweep: loading %s: %w", path, err)
	}
	done, err := checkAgainstGrid(spec.withDefaults(), indexed)
	if err != nil {
		return nil, fmt.Errorf("sweep: loading %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, err
	}
	opt.Out = f
	opt.Completed = done
	res, err := Run(spec, opt)
	if res != nil {
		res.ResumeValidBytes = valid
		res.ResumeTornBytes = cr.n - valid
	}
	if err != nil {
		return res, err
	}
	return res, f.Sync()
}

// countingReader counts bytes consumed, so Resume can size the torn tail
// (total read minus valid prefix) without a second pass.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func itoa(n int) string { return strconv.Itoa(n) }

func wrapCellErr(key string, err error) error {
	return fmt.Errorf("sweep: cell %s: %w", key, err)
}
