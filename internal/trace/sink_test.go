package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestNDJSONSinkWritesLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	if err := s.Record(&Event{Kind: "injection", T: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(&Event{Kind: "symptom", T: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	r, _ := OpenReader(strings.NewReader(buf.String()))
	n := 0
	if err := r.ReadAll(func(Event) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 2 || r.Corrupt() != 0 {
		t.Fatalf("round-trip read %d events (%d corrupt), want 2 clean", n, r.Corrupt())
	}
}

type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestNDJSONSinkClosesCloser(t *testing.T) {
	w := &closeRecorder{}
	s := NewNDJSONSink(w)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Fatal("Close did not propagate to the underlying io.Closer")
	}
}

func TestCountingSink(t *testing.T) {
	s := NewCountingSink()
	for i := 0; i < 3; i++ {
		if err := s.Record(&Event{Kind: "symptom", T: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Record(&Event{Kind: "verdict", T: 9}); err != nil {
		t.Fatal(err)
	}
	if got := s.Count("symptom"); got != 3 {
		t.Fatalf("Count(symptom) = %d, want 3", got)
	}
	if got := s.Count("verdict"); got != 1 {
		t.Fatalf("Count(verdict) = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
