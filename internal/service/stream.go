package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"vccmin/internal/sweep"
)

// The live-delivery layer: GET /v1/sweeps/{id}/stream pushes a job's
// rows as they flush instead of making clients poll /rows and
// re-download the whole set. The hub wakes the handler after every
// flushed row; the in-order JSONL checkpoint file is the data source,
// so what a subscriber receives is byte-for-byte what /rows would
// serve — streaming is a delivery optimization, never a second format.
//
// Two wire formats:
//
//   - SSE (default): each row is one event whose id is the row's
//     0-based stream index; a reconnecting client sends Last-Event-ID
//     and resumes at the next row. Job completion is a final "done"
//     (or "failed") event carrying the job snapshot.
//   - ?format=jsonl: a chunked application/x-ndjson body that grows
//     until the job finishes — for curl and pipeline consumers; resume
//     via ?offset=N (rows to skip).

// streamQuery is the stream route's query: the wire format and the
// number of rows to skip.
type streamQuery struct {
	Format string `json:"format"` // sse (default) or jsonl
	Offset int    `json:"offset"`
}

// streamPollInterval bounds how stale a stream can get if a wake-up is
// ever missed, and doubles as the SSE keep-alive cadence.
const streamPollInterval = 500 * time.Millisecond

func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	// Resume point: ?offset= wins, else the SSE Last-Event-ID header
	// (the id of the last row received, so delivery restarts after it).
	// An empty ?offset= is absent, as bindQuery reads it.
	query := r.URL.Query()
	var q streamQuery
	if err := bindQuery(query, &q); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	if q.Format != "" && q.Format != "sse" && q.Format != "jsonl" {
		writeErr(w, http.StatusBadRequest, "bad format %q (want sse or jsonl)", q.Format)
		return
	}
	jsonl := q.Format == "jsonl"
	start := q.Offset
	if start < 0 {
		writeErr(w, http.StatusBadRequest, "offset %d negative", start)
		return
	}
	if lei := r.Header.Get("Last-Event-ID"); lei != "" && query.Get("offset") == "" {
		last, err := strconv.Atoi(lei)
		if err != nil || last < 0 {
			writeErr(w, http.StatusBadRequest, "bad Last-Event-ID %q", lei)
			return
		}
		start = last + 1
	}

	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	f := &jobFile{path: s.jobs.RowsPath(id)}
	defer f.Close()
	tail := sweep.NewCheckpoint(f)

	next := 0 // absolute index of the next row to read from the file
	tick := time.NewTicker(streamPollInterval)
	defer tick.Stop()
	for {
		// Order matters: grab the wake-up channel BEFORE the status and
		// the file reads. A row flushed (or a terminal transition) after
		// our read closes this same channel, so we can never sleep
		// through it.
		wake := s.jobs.hub.watch(id)
		snap, _ := s.jobs.Get(id)
		terminal := snap.Status == JobDone || snap.Status == JobFailed

		for {
			line, err := tail.Next()
			if err != nil || line == nil {
				if err != nil {
					// Mid-stream failure: the status line is long gone, so
					// just terminate the body; the client sees a truncated
					// stream and retries with its resume point.
					return
				}
				break
			}
			if next >= start {
				if jsonl {
					_, err = w.Write(line)
				} else {
					_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", next, bytes.TrimRight(line, "\n"))
				}
				if err != nil {
					return
				}
			}
			next++
		}
		fl.Flush()

		// The writer flushes every row before the status turns terminal,
		// and we re-read the file after observing the status — so at this
		// point a terminal job has been drained completely.
		if terminal {
			if !jsonl {
				event := "done"
				if snap.Status == JobFailed {
					event = "failed"
				}
				b, err := json.Marshal(snap)
				if err != nil {
					return
				}
				// The final event repeats the last row id: a client that
				// reconnects from it resumes past every row and receives
				// just the terminal event again — an idempotent close.
				if next > 0 {
					fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, next-1, b)
				} else {
					fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
				}
				fl.Flush()
			}
			return
		}

		select {
		case <-wake:
		case <-tick.C:
			if !jsonl {
				// Keep-alive comment so idle connections (queued job, slow
				// cells) are distinguishable from dead ones.
				if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
					return
				}
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// jobFile reads a job's checkpoint file, opening it at the first Read
// that finds it: until the file exists (a queued job that has not
// flushed a row) it reads as empty, so a tail finds nothing yet and a
// count finds zero rows.
type jobFile struct {
	path string
	f    *os.File
}

func (j *jobFile) Read(p []byte) (int, error) {
	if j.f == nil {
		f, err := os.Open(j.path)
		if errors.Is(err, os.ErrNotExist) {
			return 0, io.EOF
		}
		if err != nil {
			return 0, err
		}
		j.f = f
	}
	return j.f.Read(p)
}

func (j *jobFile) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// eachRow calls fn with each of the first n complete rows of a job's
// checkpoint (every row when n < 0), newline included, and returns how
// many rows it read. The count is what X-Total-Count reports and what
// stream event ids index.
func eachRow(path string, n int, fn func(i int, line []byte) error) (int, error) {
	f := &jobFile{path: path}
	defer f.Close()
	ck := sweep.NewCheckpoint(f)
	i := 0
	for ; n < 0 || i < n; i++ {
		line, err := ck.Next()
		if err != nil || line == nil {
			return i, err
		}
		if err := fn(i, line); err != nil {
			return i, err
		}
	}
	return i, nil
}

// ---- Paginated row access ----

// handleSweepRows streams the job's checkpoint as JSONL. For a running
// job this is the flushed in-order prefix — a point-in-time progress
// snapshot (use /stream for live delivery). ?offset= skips rows and
// ?limit= caps them, so a million-row job can be read in pages; the
// X-Total-Count header always carries the current complete-row count.
func (s *Server) handleSweepRows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	p, err := bindPage(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}

	path := s.jobs.RowsPath(id)
	total, err := eachRow(path, -1, func(int, []byte) error { return nil })
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%s", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	// Emit at most the rows counted above: rows flushed between the two
	// passes would otherwise make the body disagree with X-Total-Count.
	// A read error midway ends the body after the rows already served.
	offset, hi := p.window(total)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	eachRow(path, hi, func(i int, line []byte) error {
		if i < offset {
			return nil
		}
		_, err := bw.Write(line)
		return err
	})
}
