package trace

import (
	"encoding/json"
	"io"
)

// Sink consumes trace events. It is the pluggable back end of a Recorder:
// the same cluster instrumentation can stream NDJSON or binary records to
// a file or an uplink, or feed in-process metrics, without the recording
// call sites knowing which. A nil sink records nothing. Implementations
// are used from the single-threaded simulator loop and need not be safe
// for concurrent use unless documented otherwise.
type Sink interface {
	// Record consumes one event. The *Event is valid only for the call:
	// the recorder reuses it for the next event, so a sink that keeps the
	// event must copy it (a shallow copy suffices — the pointer fields
	// point to per-event memory). A non-nil error stops the recorder that
	// owns the sink (recording is best-effort observation; the simulation
	// itself never fails because a trace back end did).
	Record(e *Event) error
	// Close flushes and releases the sink. A recorder never calls Close
	// itself — the owner of the underlying resource does.
	Close() error
}

// NDJSONSink encodes events as JSON lines to an io.Writer — the on-disk
// and on-wire trace format (the offline warranty interface of the paper's
// Section V-B).
type NDJSONSink struct {
	enc *json.Encoder
	c   io.Closer
}

// NewNDJSONSink returns a sink writing one JSON object per line to w. If w
// is also an io.Closer, Close closes it.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	s := &NDJSONSink{enc: json.NewEncoder(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Record encodes e as one NDJSON line.
func (s *NDJSONSink) Record(e *Event) error { return s.enc.Encode(e) }

// Close closes the underlying writer when it is an io.Closer.
func (s *NDJSONSink) Close() error {
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// CountingSink tallies events by kind without retaining them — the cheap
// metrics back end for long soak runs where a full NDJSON stream would be
// gigabytes.
type CountingSink struct {
	byKind map[string]int
}

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{byKind: make(map[string]int)}
}

// Record counts e.
func (s *CountingSink) Record(e *Event) error {
	s.byKind[e.Kind]++
	return nil
}

// Close is a no-op.
func (s *CountingSink) Close() error { return nil }

// Count returns the number of events of the given kind.
func (s *CountingSink) Count(kind string) int { return s.byKind[kind] }
