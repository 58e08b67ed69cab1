package trace

import (
	"bufio"
	"bytes"
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

// ContentType returns the HTTP media type for the format.
func (f Format) ContentType() string {
	if f == FormatBinary {
		return ContentTypeBinary
	}
	return ContentTypeNDJSON
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
	// Next returns the next decodable event, io.EOF at end of stream.
	Next() (Event, error)
	// ReadAll decodes the remaining stream, invoking fn per event.
	ReadAll(fn func(Event)) error
	// Records returns the number of records (NDJSON lines) consumed.
	Records() int
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

// TranscodeBytes re-encodes a complete trace blob into the given format
// (sniffing the input's). Undecodable input records are skipped and
// counted, per the readers' recovery semantics; err is reserved for an
// unusable stream or an encoding failure. Transcoding NDJSON→binary→
// NDJSON is value-preserving for every field the kind's layout carries —
// the warranty summaries from either blob are byte-identical.
func TranscodeBytes(blob []byte, to Format) (out []byte, events, corrupt int, err error) {
	rd, _ := OpenReader(bytes.NewReader(blob))
	var buf bytes.Buffer
	buf.Grow(len(blob))
	sink := NewSink(&buf, to)
	unencodable := 0
	err = rd.ReadAll(func(e Event) {
		if serr := sink.Record(&e); serr != nil {
			unencodable++ // e.g. an event kind v1 has no layout for
			return
		}
		events++
	})
	if cerr := sink.Close(); err == nil && cerr != nil {
		err = cerr
	}
	corrupt = rd.Corrupt() + unencodable
	if err != nil {
		return nil, events, corrupt, err
	}
	return buf.Bytes(), events, corrupt, nil
}
