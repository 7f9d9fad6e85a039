package service

import (
	"net/http"
	"os"
	"path/filepath"

	"vccmin/internal/colstore"
	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// serveQuery answers POST /v1/query: a colstore aggregation over a
// sweep's result set. Two serving shapes share one response identity:
//
//   - The sweep already ran as a job: its checkpoint is folded (once)
//     into colstore shards next to the engine's result blobs, and the
//     query scans them on the interactive tier — this is the cheap,
//     fleet-scale path.
//   - No finished checkpoint: the query computes the sweep inline.
//     That is batch-shaped work, so it runs on the batch tier and is
//     shed past the admission watermark like POST /v1/batch.
//
// Both paths store byte-identical bytes under the task's canonical
// hash (colstore.Query is row-order independent), so whichever ran
// first serves every later repeat from the engine store.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, t tasks.QueryTask) {
	if src, ok := s.colstoreSource(t.SweepHash()); ok {
		s.runTaskTier(w, r, t.WithSource(src), engine.TierInteractive)
		return
	}
	if s.shedBatch(w, "batch tier") {
		return
	}
	s.runTaskTier(w, r, t, engine.TierBatch)
}

// colstoreDir is where a finished sweep's folded shards live: under the
// engine's result store, keyed by the sweep's canonical hash — the same
// identity its job and checkpoint carry.
func (s *Server) colstoreDir(sweepHash string) string {
	return filepath.Join(s.cfg.DataDir, "results", "colstore", sweepHash)
}

// colstoreSource returns a shard source for the sweep's finished
// checkpoint, folding it on first use. A sweep without a done job (or
// whose fold fails) reports ok=false and the caller falls back to
// computing — the fold is an accelerator, never a correctness
// dependency.
func (s *Server) colstoreSource(sweepHash string) (colstore.Source, bool) {
	snap, ok := s.jobs.Get(sweepHash)
	if !ok || snap.Status != JobDone {
		return nil, false
	}
	dir := s.colstoreDir(sweepHash)
	if _, err := os.Stat(dir); err != nil {
		if _, err := colstore.FoldJSONL(s.jobs.RowsPath(sweepHash), dir, colstore.DefaultShardRows); err != nil {
			return nil, false
		}
	}
	d, err := colstore.OpenDir(dir)
	if err != nil {
		return nil, false
	}
	return d, true
}
