package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Format identifies a trace stream encoding.
type Format int

const (
	// FormatNDJSON is the JSON-lines encoding — human-readable, the
	// interop and archival format.
	FormatNDJSON Format = iota
	// FormatBinary is the length-prefixed binary encoding — the
	// high-volume ingest format.
	FormatBinary
)

// String returns the format's conventional short name.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "ndjson"
}

// ParseFormat resolves a format name ("ndjson" or "binary").
func ParseFormat(s string) (Format, error) {
	switch s {
	case "ndjson":
		return FormatNDJSON, nil
	case "binary":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (ndjson or binary)", s)
}

// NewSink returns the encoding sink for the format over w.
func NewSink(w io.Writer, f Format) Sink {
	if f == FormatBinary {
		return NewBinarySink(w)
	}
	return NewNDJSONSink(w)
}

// EventReader is the streaming decoder interface both trace encodings
// implement: sequential event access with corruption counted and skipped
// rather than fatal, and record-numbered recovery detail.
type EventReader interface {
	// Each decodes the remaining stream, handing fn a reader-owned event
	// that the next record overwrites: fn keeps Event.Detached copies.
	Each(fn func(*Event)) error
	// ReadAll is Each with one copy of every event handed to fn. Pointer
	// fields of a binary reader's copies still point into its scratch.
	ReadAll(fn func(Event)) error
	// Corrupt returns the number of records skipped as undecodable.
	Corrupt() int
	// CorruptErrors returns capped record-numbered recovery detail.
	CorruptErrors() []error
	// SetMaxRecordBytes bounds one record (one NDJSON line, one binary
	// payload); values < 1 restore the default.
	SetMaxRecordBytes(n int)
}

var (
	_ EventReader = (*Reader)(nil)
	_ EventReader = (*BinaryReader)(nil)
)

// OpenReader sniffs the stream's encoding from its first bytes and
// returns the matching decoder: a stream opening with the binary magic is
// binary, anything else — NDJSON lines, an empty stream — is NDJSON.
// This is how every trace consumer (fleetd ingest, decos-replay, the
// warranty collector) accepts both encodings through one call.
func OpenReader(r io.Reader) (EventReader, Format) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	head, _ := br.Peek(len(binaryMagic))
	if HasBinaryHeader(head) {
		return newBinaryReader(br), FormatBinary
	}
	return newReader(br), FormatNDJSON
}

// Transcode streams every event rd decodes into sink, then closes the
// sink. Events the sink cannot encode (e.g. a kind v1 has no layout for)
// are skipped and counted in unencodable; undecodable input records are
// rd's Corrupt count. err is the first read or close error. Transcoding
// NDJSON→binary→NDJSON is value-preserving for every field the kind's
// layout carries: the warranty summaries from either stream are
// byte-identical.
func Transcode(rd EventReader, sink Sink) (events, unencodable int, err error) {
	err = rd.Each(func(e *Event) {
		if serr := sink.Record(e); serr != nil {
			unencodable++
			return
		}
		events++
	})
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return events, unencodable, err
}
