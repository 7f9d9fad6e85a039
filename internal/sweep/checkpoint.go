package sweep

import (
	"bufio"
	"bytes"
	"io"
)

// Checkpoint reads a sweep's JSONL row checkpoint one line at a time. It
// is the one place the format's framing lives: a line ended by a newline
// is complete, a complete all-whitespace line is skipped, and the bytes
// after the last newline are a line still being written (or torn by a
// kill mid-write), never a row. ReadRows, Resume and the service's /rows
// and /stream all read the checkpoint through it, so they agree on what
// it holds.
//
// The end of the data is not final: when the underlying reader yields
// more bytes later (a file the sweep is still appending to), Next goes
// on from where it stopped and completes the line it had only part of.
type Checkpoint struct {
	br      *bufio.Reader
	partial []byte // the line read so far but not yet ended by a newline
	valid   int64  // bytes of the complete lines consumed
	line    int    // complete lines consumed, blank ones included
}

// NewCheckpoint reads a checkpoint from r.
func NewCheckpoint(r io.Reader) *Checkpoint {
	return &Checkpoint{br: bufio.NewReader(r)}
}

// Next returns the next complete non-blank line, newline included, or
// nil when no complete line is available yet. The line is valid until
// the next call. An error is a read failure other than the end of the
// data.
func (c *Checkpoint) Next() ([]byte, error) {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil || len(c.partial) > 0 {
			c.partial = append(c.partial, line...)
			switch err {
			case nil:
				line, c.partial = c.partial, c.partial[:0]
			case bufio.ErrBufferFull:
				continue
			case io.EOF:
				return nil, nil
			default:
				return nil, err
			}
		}
		c.valid += int64(len(line))
		c.line++
		if len(bytes.TrimSpace(line)) > 0 {
			return line, nil
		}
	}
}

// Valid returns the byte length of the complete lines read so far: the
// prefix a resume keeps and appends after.
func (c *Checkpoint) Valid() int64 { return c.valid }

// Torn returns the bytes read after the last complete line: a line not
// yet finished, or torn by a kill mid-write.
func (c *Checkpoint) Torn() []byte { return c.partial }

// Line returns the number of complete lines read so far, blank ones
// included: after Next returns a line, its 1-based line number.
func (c *Checkpoint) Line() int { return c.line }
