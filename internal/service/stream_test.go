package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"vccmin/internal/sweep"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses the next event off the stream, skipping keep-alive
// comments. io.EOF surfaces when the server closed the stream.
func readSSE(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	seen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return ev, nil
			}
		case strings.HasPrefix(line, ":"): // comment / keep-alive
		case strings.HasPrefix(line, "id: "):
			ev.id, seen = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "event: "):
			ev.event, seen = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "data: "):
			ev.data, seen = strings.TrimPrefix(line, "data: "), true
		}
	}
}

// slowSpec is a sweep big enough (6 cells, two benchmarks each, heavy
// instruction budget, one worker) that the stream test reliably
// observes rows before the job finishes.
func slowSpec() SweepRequest {
	return SweepRequest{
		Pfails:       []float64{0.0005, 0.001, 0.002},
		Schemes:      []string{"baseline", "block"},
		Benchmarks:   []string{"crafty", "mcf"},
		Trials:       1,
		Instructions: 300000,
		BaseSeed:     11,
		Workers:      1,
	}
}

// splitLines splits a JSONL body into lines that each keep their
// trailing newline.
func splitLines(b []byte) []string {
	parts := strings.SplitAfter(string(b), "\n")
	if n := len(parts); n > 0 && parts[n-1] == "" {
		parts = parts[:n-1]
	}
	return parts
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestStreamLiveDelivery is the acceptance path: rows of an in-flight
// job arrive over /stream before the job completes, every row exactly
// once in order, then a final done event carrying the job snapshot.
func TestStreamLiveDelivery(t *testing.T) {
	_, ts := newTestServer(t)

	var acc SweepAccepted
	if resp := postJSON(t, ts.URL+"/v1/sweeps", slowSpec(), &acc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	id := acc.Job.ID

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)

	first, err := readSSE(br)
	if err != nil {
		t.Fatal(err)
	}
	if first.id != "0" || first.data == "" {
		t.Fatalf("first event id %q data %q, want id 0 with a row", first.id, first.data)
	}
	// The job must still be in flight when its first row arrives — live
	// delivery, not an after-the-fact replay.
	var snap JobSnapshot
	getJSON(t, ts.URL+"/v1/sweeps/"+id, &snap)
	if snap.Status != JobRunning && snap.Status != JobQueued {
		t.Fatalf("job already %s when the first streamed row arrived", snap.Status)
	}

	var rows []string
	rows = append(rows, first.data)
	var done sseEvent
	for {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatalf("stream ended without a done event: %v", err)
		}
		if ev.event != "" {
			done = ev
			break
		}
		if want := strconv.Itoa(len(rows)); ev.id != want {
			t.Fatalf("event id %q, want %q (in-order, exactly-once)", ev.id, want)
		}
		rows = append(rows, ev.data)
	}
	if done.event != "done" {
		t.Fatalf("final event %q, want done", done.event)
	}
	var final JobSnapshot
	if err := json.Unmarshal([]byte(done.data), &final); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if final.Status != JobDone || final.TotalCells != 6 || len(rows) != 6 {
		t.Fatalf("done snapshot %+v with %d rows, want done/6/6", final, len(rows))
	}
	if done.id != "5" {
		t.Fatalf("done event id %q, want 5 (the last row)", done.id)
	}

	// The streamed bytes are exactly what /rows serves after the fact.
	_, polled := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows")
	if got := strings.Join(rows, "\n") + "\n"; got != string(polled) {
		t.Fatalf("streamed rows differ from polled rows:\n%q\nvs\n%q", got, polled)
	}
}

// TestStreamResume is the Last-Event-ID acceptance path: a client that
// reconnects mid-job with the standard SSE resume header receives
// exactly the rows it missed, byte-identical to the polled ones.
func TestStreamResume(t *testing.T) {
	_, ts := newTestServer(t)

	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	id := acc.Job.ID
	waitDone(t, ts.URL, id)

	_, polled := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows")
	lines := splitLines(polled)
	if len(lines) != 4 {
		t.Fatalf("%d polled rows, want 4", len(lines))
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/stream", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	var got []string
	for i := 2; ; i++ {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatal(err)
		}
		if ev.event == "done" {
			break
		}
		if ev.id != strconv.Itoa(i) {
			t.Fatalf("resumed event id %q, want %d", ev.id, i)
		}
		got = append(got, ev.data+"\n")
	}
	if len(got) != 2 || got[0] != lines[2] || got[1] != lines[3] {
		t.Fatalf("resume from id 1 delivered %q, want rows 2..3 %q", got, lines[2:])
	}

	// Resuming from the final id replays nothing but the terminal event —
	// the idempotent-close contract.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/stream", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	ev, err := readSSE(bufio.NewReader(resp2.Body))
	if err != nil || ev.event != "done" {
		t.Fatalf("resume past the end: event %+v err %v, want an immediate done", ev, err)
	}
}

// TestStreamJSONL covers the chunked fallback: the body is the rows
// file verbatim (from ?offset), closing when the job is over.
func TestStreamJSONL(t *testing.T) {
	_, ts := newTestServer(t)

	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	id := acc.Job.ID
	waitDone(t, ts.URL, id)
	_, polled := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows")

	resp, body := getBody(t, ts.URL+"/v1/sweeps/"+id+"/stream?format=jsonl")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	if string(body) != string(polled) {
		t.Fatalf("jsonl stream %q differs from polled rows %q", body, polled)
	}

	lines := splitLines(polled)
	_, tail := getBody(t, ts.URL+"/v1/sweeps/"+id+"/stream?format=jsonl&offset=3")
	if string(tail) != lines[3] {
		t.Fatalf("offset=3 stream %q, want %q", tail, lines[3])
	}
}

func TestStreamValidation(t *testing.T) {
	_, ts := newTestServer(t)
	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	id := acc.Job.ID
	waitDone(t, ts.URL, id)

	cases := []struct {
		url    string
		header string
		status int
	}{
		{url: "/v1/sweeps/nope/stream", status: http.StatusNotFound},
		{url: "/v1/sweeps/" + id + "/stream?format=csv", status: http.StatusBadRequest},
		{url: "/v1/sweeps/" + id + "/stream?offset=-2", status: http.StatusBadRequest},
		{url: "/v1/sweeps/" + id + "/stream?offset=-1", status: http.StatusBadRequest},
		{url: "/v1/sweeps/" + id + "/stream?offset=-1", header: "0", status: http.StatusBadRequest},
		{url: "/v1/sweeps/" + id + "/stream", header: "banana", status: http.StatusBadRequest},
	}
	for _, c := range cases {
		req, _ := http.NewRequest("GET", ts.URL+c.url, nil)
		if c.header != "" {
			req.Header.Set("Last-Event-ID", c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("GET %s (Last-Event-ID %q): status %d, want %d", c.url, c.header, resp.StatusCode, c.status)
		}
	}
}

// TestRowsStreamReadRowsAgree: one checkpoint with blank lines, a CRLF
// row and a torn tail, written into a finished job's rows path, reads
// the same row for row through /rows (X-Total-Count and body, whole and
// paged), /stream?format=jsonl and sweep.ReadRows of its valid prefix.
func TestRowsStreamReadRowsAgree(t *testing.T) {
	s, ts := newTestServer(t)
	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", tinySpec(), &acc)
	id := acc.Job.ID
	waitDone(t, ts.URL, id)

	path := s.jobs.RowsPath(id)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(orig)
	var ck bytes.Buffer
	ck.WriteString("\n")
	for i, line := range lines {
		if i == 1 {
			line = strings.TrimSuffix(line, "\n") + "\r\n"
		}
		ck.WriteString(line)
		if i%2 == 0 {
			ck.WriteString(" \t\n\r\n")
		}
	}
	valid := ck.Len()
	ck.WriteString(lines[0][:len(lines[0])/2])
	if err := os.WriteFile(path, ck.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := sweep.ReadRows(bytes.NewReader(ck.Bytes()[:valid]))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("valid prefix holds %d rows, the job wrote %d", len(want), len(lines))
	}
	sameRows := func(what string, body []byte, want []sweep.Row) {
		t.Helper()
		got, err := sweep.ReadRows(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs:\n%+v\n%+v", what, i, got[i], want[i])
			}
		}
	}

	resp, polled := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows")
	if n := resp.Header.Get("X-Total-Count"); n != strconv.Itoa(len(want)) {
		t.Fatalf("X-Total-Count %s, want %d", n, len(want))
	}
	sameRows("/rows", polled, want)
	_, paged := getBody(t, ts.URL+"/v1/sweeps/"+id+"/rows?offset=1&limit=2")
	sameRows("/rows?offset=1&limit=2", paged, want[1:3])
	_, streamed := getBody(t, ts.URL+"/v1/sweeps/"+id+"/stream?format=jsonl")
	if !bytes.Equal(streamed, polled) {
		t.Fatalf("jsonl stream %q differs from polled rows %q", streamed, polled)
	}
	sameRows("/stream?format=jsonl", streamed, want)
}

// TestStreamKeepAliveAndDisconnect pins down that an idle stream stays
// open (receiving keep-alives) and a client disconnect releases the
// handler rather than leaking it.
func TestStreamKeepAliveAndDisconnect(t *testing.T) {
	s, ts := newTestServer(t)

	// A queued job that never starts: occupy the lone batch worker first.
	var first SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", slowSpec(), &first)
	var queued SweepAccepted
	spec := tinySpec()
	spec.BaseSeed = 999
	postJSON(t, ts.URL+"/v1/sweeps", spec, &queued)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + queued.Job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	// The stream produces no rows yet; closing the body must unblock the
	// handler via the request context. If it leaked, Close below would
	// hang on the active handler. (The httptest server tracks conns.)
	time.Sleep(50 * time.Millisecond)
	resp.Body.Close()
	_ = s
}
