package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Sink consumes trace events. It is the pluggable back end of a Recorder:
// the same cluster instrumentation can stream NDJSON to a file or an
// uplink, feed in-process metrics, fan out to both, or be discarded —
// without the recording call sites knowing which. Implementations are used
// from the single-threaded simulator loop and need not be safe for
// concurrent use unless documented otherwise.
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
	total  int
	byKind map[string]int
	lastT  int64
}

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{byKind: make(map[string]int)}
}

// Record counts e.
func (s *CountingSink) Record(e *Event) error {
	s.total++
	s.byKind[e.Kind]++
	if e.T > s.lastT {
		s.lastT = e.T
	}
	return nil
}

// Close is a no-op.
func (s *CountingSink) Close() error { return nil }

// Total returns the number of events recorded.
func (s *CountingSink) Total() int { return s.total }

// Count returns the number of events of the given kind.
func (s *CountingSink) Count(kind string) int { return s.byKind[kind] }

// Kinds returns the observed event kinds in sorted order.
func (s *CountingSink) Kinds() []string {
	out := make([]string, 0, len(s.byKind))
	for k := range s.byKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LastT returns the largest event timestamp seen, in microseconds.
func (s *CountingSink) LastT() int64 { return s.lastT }

// teeSink fans every event out to all children.
type teeSink struct{ sinks []Sink }

// Tee returns a sink duplicating every event to all the given sinks, in
// order. Record stops at — and returns — the first child error; Close
// closes every child and returns the first error.
func Tee(sinks ...Sink) Sink {
	// Flatten nested tees and drop no-ops so hot Record loops stay short.
	flat := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		switch v := s.(type) {
		case nil, nopSink:
		case *teeSink:
			flat = append(flat, v.sinks...)
		default:
			flat = append(flat, s)
		}
	}
	switch len(flat) {
	case 0:
		return Nop()
	case 1:
		return flat[0]
	}
	return &teeSink{sinks: flat}
}

func (t *teeSink) Record(e *Event) error {
	for _, s := range t.sinks {
		if err := s.Record(e); err != nil {
			return err
		}
	}
	return nil
}

func (t *teeSink) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nopSink discards everything. It is a sentinel: attach points recognize
// it (IsNop) and skip instrumentation entirely, so a run configured with
// the no-op sink pays nothing on the simulator hot path.
type nopSink struct{}

func (nopSink) Record(*Event) error { return nil }
func (nopSink) Close() error        { return nil }

// Nop returns the no-op sink.
func Nop() Sink { return nopSink{} }

// IsNop reports whether s is nil or the no-op sink — i.e. recording
// through it could never observe anything, and instrumentation may be
// skipped altogether.
func IsNop(s Sink) bool {
	if s == nil {
		return true
	}
	_, ok := s.(nopSink)
	return ok
}
