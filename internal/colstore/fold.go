package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vccmin/internal/sweep"
)

// Source yields a result set shard by shard — the query layer's input.
// Shards arrive in row order: concatenating their rows reproduces the
// original result set exactly (for a fold, the checkpoint order).
type Source interface {
	Shards(fn func(*Shard) error) error
}

// ColumnSource is an optional Source extension for sources that can
// deliver shards with only some columns materialized. Query probes for
// it and passes the set of columns the spec actually references, so a
// disk-backed source decodes 3 columns instead of 27 for a typical
// group-by. The yielded shards are partial: columns outside need hold
// zero values, and Rows must not be called on them.
type ColumnSource interface {
	Source
	// ShardsColumns is Shards restricted to the named columns; nil
	// means all (identical to Shards). A shard handed to fn is valid
	// only until fn returns: the source may decode the next shard into
	// the same buffers, so fn must not keep it or its columns.
	ShardsColumns(need map[string]bool, fn func(*Shard) error) error
}

// Mem is an in-memory Source: a slice of shards in row order.
type Mem []*Shard

// Shards implements Source.
func (m Mem) Shards(fn func(*Shard) error) error {
	for _, s := range m {
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// eachShard builds the shards of rows, shardRows each (0 =
// DefaultShardRows), in order, handing each to fn before building the
// next, so only one shard's columns need be alive at a time.
func eachShard(rows []sweep.Row, shardRows int, fn func(i int, s *Shard) error) error {
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	for i := 0; len(rows) > 0; i++ {
		n := min(shardRows, len(rows))
		s, err := NewShard(rows[:n])
		if err != nil {
			return err
		}
		if err := fn(i, s); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// ShardsOf chunks rows into shards of shardRows each (0 =
// DefaultShardRows), preserving order.
func ShardsOf(rows []sweep.Row, shardRows int) (Mem, error) {
	var out Mem
	err := eachShard(rows, shardRows, func(_ int, s *Shard) error {
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// shardFileName numbers shard files so a lexical directory listing is
// row order: 000000.colv1, 000001.colv1, ...
func shardFileName(i int) string { return fmt.Sprintf("%06d.colv1", i) }

// WriteDir folds rows into a shard directory, atomically: shards are
// written into a temp directory that is renamed into place, so a
// concurrent reader never sees a half-folded directory. If dir already
// exists the fold is a no-op — shard bytes are a deterministic function
// of the rows, so whoever got there first wrote the same bytes. Shards
// are built, encoded and written one at a time, so the fold holds one
// shard's columns, not the whole result set's; a row that fails
// NewShard's checks leaves neither dir nor the temp directory behind.
func WriteDir(dir string, rows []sweep.Row, shardRows int) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".fold-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	err = eachShard(rows, shardRows, func(i int, s *Shard) error {
		return os.WriteFile(filepath.Join(tmp, shardFileName(i)), s.EncodeBytes(), 0o644)
	})
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		// A concurrent fold won the rename; its bytes are ours.
		if _, serr := os.Stat(dir); serr == nil {
			return nil
		}
		return err
	}
	return nil
}

// FoldJSONL folds a completed sweep's JSONL checkpoint into a shard
// directory, preserving checkpoint order (the order GET
// /v1/sweeps/{id}/rows pages in — a resumed job's checkpoint is not in
// cell-index order, and the fold must not reorder it). Returns the row
// count.
func FoldJSONL(src, dir string, shardRows int) (int, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rows, err := sweep.ReadRows(f)
	if err != nil {
		return 0, err
	}
	if err := WriteDir(dir, rows, shardRows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Dir is an on-disk Source: a directory of *.colv1 shard files read in
// lexical (= row) order.
type Dir struct {
	path  string
	files []string
}

// OpenDir lists dir's shard files. A directory with none is valid (an
// empty result set folds to zero shards).
func OpenDir(path string) (*Dir, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	d := &Dir{path: path}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".colv1" {
			d.files = append(d.files, e.Name())
		}
	}
	sort.Strings(d.files)
	return d, nil
}

// Shards implements Source, reading and decoding each whole file in
// turn with every canonical-form check; each shard is freshly
// allocated.
func (d *Dir) Shards(fn func(*Shard) error) error {
	for _, name := range d.files {
		b, err := os.ReadFile(filepath.Join(d.path, name))
		if err != nil {
			return err
		}
		s, err := Decode(b)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// ShardsColumns implements ColumnSource. With need nil it is Shards.
// Otherwise it reads only each file's header, trailer, footer and the
// needed columns' payloads, validates the footer and tiling in full and
// decodes the needed payloads into buffers reused across this call's
// files; the buffers live for the call, not on d.
func (d *Dir) ShardsColumns(need map[string]bool, fn func(*Shard) error) error {
	if need == nil {
		return d.Shards(fn)
	}
	var sr shardReader
	for _, name := range d.files {
		s, err := sr.readFile(filepath.Join(d.path, name), need)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}
