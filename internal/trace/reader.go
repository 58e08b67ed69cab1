package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxLineBytes bounds a single trace line. Events are small (a few
// hundred bytes); the bound exists so a corrupt or hostile stream cannot
// grow the per-connection decode buffer without limit.
const DefaultMaxLineBytes = 1 << 20

// Reader is a streaming NDJSON decoder for trace events with line-level
// error recovery: a corrupt or over-long line is counted and skipped, not
// fatal, because a fleet trace aggregates many vehicles over flaky uplinks
// and one mangled record must not discard the rest of the stream.
type Reader struct {
	br  *bufio.Reader
	max int

	lines   int
	corrupt int
	errs    []error

	ev Event // the decoded event Each hands out
}

// maxCorruptErrors bounds the recovery-error detail a Reader retains: a
// byte-shifted multi-gigabyte stream must not grow an error slice in step
// with its corruption count.
const maxCorruptErrors = 16

func newReader(br *bufio.Reader) *Reader {
	return &Reader{br: br, max: DefaultMaxLineBytes}
}

// SetMaxRecordBytes bounds the size of a single line (a record of the
// NDJSON encoding); longer lines are skipped and counted as corrupt.
// Values < 1 restore the default.
func (r *Reader) SetMaxRecordBytes(n int) {
	if n < 1 {
		n = DefaultMaxLineBytes
	}
	r.max = n
}

// Corrupt returns the number of lines skipped as undecodable or over-long.
func (r *Reader) Corrupt() int { return r.corrupt }

// CorruptErrors returns line-recovery detail for skipped lines — each
// error names the 1-based line number and the reason — capped at the first
// 16 so a heavily mangled stream stays cheap to diagnose.
func (r *Reader) CorruptErrors() []error { return r.errs }

// noteCorrupt counts a skipped line and retains its recovery error.
func (r *Reader) noteCorrupt(err error) {
	r.corrupt++
	if len(r.errs) < maxCorruptErrors {
		r.errs = append(r.errs, err)
	}
}

// Each decodes the remaining stream, handing fn the reader-owned event
// of every line; it is overwritten by the next line. It returns the
// first transport error other than io.EOF.
func (r *Reader) Each(fn func(*Event)) error { return each(r.next, fn) }

// ReadAll is Each with a copy of every event handed to fn.
func (r *Reader) ReadAll(fn func(Event)) error { return r.Each(func(e *Event) { fn(*e) }) }

// next decodes the next line into r.ev.
func (r *Reader) next() (*Event, error) {
	for {
		line, err := r.readLine()
		// A transport error cuts the line short: it is unread, not corrupt.
		if len(line) > 0 && (err == nil || err == io.EOF) {
			r.lines++
			// Unmarshal keeps what the line does not set: start empty.
			r.ev = Event{}
			switch uerr := json.Unmarshal(line, &r.ev); {
			case uerr == nil && r.ev.Kind != "":
				return &r.ev, nil
			case uerr != nil:
				detail := uerr.Error()
				if errors.Is(err, io.EOF) {
					detail += " (truncated final line?)"
				}
				r.noteCorrupt(fmt.Errorf("trace: line %d: %s", r.lines, detail))
			default:
				r.noteCorrupt(fmt.Errorf("trace: line %d: event without kind", r.lines))
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// readLine returns one newline-delimited line (without the terminator),
// skipping lines longer than the bound. The returned slice is only valid
// until the next call.
func (r *Reader) readLine() ([]byte, error) {
	var line []byte
	over := false
	for {
		chunk, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if len(line)+len(chunk) > r.max {
				over = true // keep draining to the newline, then drop
				line = line[:0]
			} else {
				line = append(line, chunk...)
			}
			continue
		}
		if !over {
			line = append(line, chunk...)
		}
		if over || len(line) > r.max {
			// The oversized line just ended: count it once and drop it.
			r.lines++
			r.noteCorrupt(fmt.Errorf("trace: line %d: exceeds %d-byte line bound", r.lines, r.max))
			line = line[:0]
		}
		return bytes.TrimSpace(line), err
	}
}

// each drives a reader's next to the end of its stream, handing fn every
// event; io.EOF ends it cleanly.
func each(next func() (*Event, error), fn func(*Event)) error {
	for {
		e, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(e)
	}
}
