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
	// Offset starts at the -1 sentinel so "absent" is distinguishable.
	q := streamQuery{Offset: -1}
	if err := bindQuery(r.URL.Query(), &q); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	if q.Format != "" && q.Format != "sse" && q.Format != "jsonl" {
		writeErr(w, http.StatusBadRequest, "bad format %q (want sse or jsonl)", q.Format)
		return
	}
	jsonl := q.Format == "jsonl"
	start := q.Offset
	if start < -1 {
		writeErr(w, http.StatusBadRequest, "offset %d negative", start)
		return
	}
	if start == -1 {
		start = 0
		if lei := r.Header.Get("Last-Event-ID"); lei != "" {
			last, err := strconv.Atoi(lei)
			if err != nil || last < 0 {
				writeErr(w, http.StatusBadRequest, "bad Last-Event-ID %q", lei)
				return
			}
			start = last + 1
		}
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

	tail := &rowTailer{path: s.jobs.RowsPath(id)}
	defer tail.close()

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
			line, err := tail.nextLine()
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

// rowTailer incrementally reads complete JSONL lines from a growing
// checkpoint file. It tolerates the file not existing yet (a queued job
// that has not flushed a row) and a partial final line (a row mid-
// write): both read as "nothing more yet", and the partial line is
// buffered until its newline arrives.
type rowTailer struct {
	path    string
	f       *os.File
	br      *bufio.Reader
	pending []byte
}

// nextLine returns the next complete line (including its newline), nil
// when no complete line is available yet, or a non-nil error for real
// I/O failures. Blank lines are skipped, exactly as sweep.ReadRows
// skips them.
func (t *rowTailer) nextLine() ([]byte, error) {
	if t.f == nil {
		f, err := os.Open(t.path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, nil
			}
			return nil, err
		}
		t.f = f
		t.br = bufio.NewReader(f)
	}
	for {
		chunk, err := t.br.ReadBytes('\n')
		t.pending = append(t.pending, chunk...)
		if err == io.EOF {
			// A partial tail stays pending; the file will grow under us
			// and the next read continues where this one stopped.
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		line := t.pending
		t.pending = nil
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		return line, nil
	}
}

func (t *rowTailer) close() {
	if t.f != nil {
		t.f.Close()
	}
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
	total, err := countRows(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%s", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	if total == 0 {
		return
	}

	f, err := os.Open(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%s", err)
		return
	}
	defer f.Close()
	// Emit at most the rows counted above: rows flushed between the two
	// passes would otherwise make the body disagree with X-Total-Count.
	offset, hi := p.window(total)
	emit := hi - offset
	br := bufio.NewReader(f)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for skipped, emitted := 0, 0; emitted < emit; {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return // torn tail or I/O error: the complete prefix was served
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if skipped < offset {
			skipped++
			continue
		}
		if _, err := bw.Write(line); err != nil {
			return
		}
		emitted++
	}
}

// countRows counts the complete non-blank lines of a checkpoint file; a
// missing file counts zero. The count is what X-Total-Count reports and
// what stream event ids index.
func countRows(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	n := 0
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// EOF with a partial tail: the incomplete row is not counted,
			// matching the resume logic's torn-line tolerance.
			if err == io.EOF {
				return n, nil
			}
			return 0, err
		}
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
}
