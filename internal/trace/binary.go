package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Binary trace format v1 ("DCS-B"): the compact interchange encoding for
// high-volume fleet traces. NDJSON reflects every event through
// encoding/json on both ends of the uplink; at fleet scale that double
// reflection is the ingest bottleneck. The binary format encodes the same
// events with no reflection and no per-event allocation:
//
//	stream  = magic[4] version[1] record*
//	record  = uvarint(len(payload)) payload
//	payload = kind[1] varint(t_us) varint(vehicle) fields...
//
// Fields are laid out per kind (see appendPayload/decodePayload — the two
// halves of the layout contract, pinned by the committed golden fixture):
// strings are uvarint-length-prefixed bytes, optional values carry a
// one-byte presence flag, and float64s are IEEE 754 bits little-endian, so
// every float round-trips exactly. Integers use the zigzag varint
// encoding, so timestamps and counters stay small on the wire.
//
// Evolution rules: the version byte names the record layout. A decoder
// accepts only versions it knows (a newer stream fails loudly, it is
// never misparsed); adding a field or kind bumps the version. Records are
// length-prefixed precisely so a future decoder can skip payload bytes it
// does not understand within one version family. Streams concatenate at
// the record level only — a header mid-stream is framing corruption
// (decos-replay -transcode normalizes concatenated captures).

// binaryMagic opens every binary trace stream. The first byte is outside
// ASCII so no NDJSON (or any text) stream can ever alias it — that one
// byte is what OpenReader sniffs.
var binaryMagic = [4]byte{0xD1, 'T', 'R', 'C'}

// BinaryVersion is the current binary trace format version.
const BinaryVersion = 1

// binaryHeaderLen is the stream header size: magic plus version byte.
const binaryHeaderLen = len(binaryMagic) + 1

// Content types negotiated on POST /v1/ingest.
const (
	// ContentTypeNDJSON is the JSON-lines trace encoding.
	ContentTypeNDJSON = "application/x-ndjson"
	// ContentTypeBinary is the binary trace encoding.
	ContentTypeBinary = "application/x-decos-trace"
)

// Event kind tags of format version 1. Tag 0 is reserved as invalid.
const (
	tagFrame = iota + 1
	tagSymptom
	tagVerdict
	tagTrust
	tagInjection
	tagVehicle
	tagTruth
	tagAdvice
)

// kindNames maps wire tags back to Event.Kind strings. Indexing with a
// known tag returns a shared constant, so decoding a kind never allocates.
var kindNames = [...]string{
	tagFrame:     "frame",
	tagSymptom:   "symptom",
	tagVerdict:   "verdict",
	tagTrust:     "trust",
	tagInjection: "injection",
	tagVehicle:   "vehicle",
	tagTruth:     "truth",
	tagAdvice:    "advice",
}

// kindTag returns the wire tag for an event kind (0 when unknown).
func kindTag(kind string) byte {
	switch kind {
	case "frame":
		return tagFrame
	case "symptom":
		return tagSymptom
	case "verdict":
		return tagVerdict
	case "trust":
		return tagTrust
	case "injection":
		return tagInjection
	case "vehicle":
		return tagVehicle
	case "truth":
		return tagTruth
	case "advice":
		return tagAdvice
	}
	return 0
}

// AppendHeader appends the binary stream header (magic + version) to dst.
func AppendHeader(dst []byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	return append(dst, BinaryVersion)
}

// HasBinaryHeader reports whether b begins with the binary trace magic —
// the sniff OpenReader and the ingest fast path share.
func HasBinaryHeader(b []byte) bool {
	return len(b) >= len(binaryMagic) && [4]byte(b[:4]) == binaryMagic
}

// payloadScratch pools the per-record payload build buffer so concurrent
// encoders (one sink per campaign worker) stay allocation-free in steady
// state.
var payloadScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// AppendEvent appends e as one length-prefixed binary record to dst and
// returns the extended slice. dst is unchanged when the event cannot be
// encoded (unknown kind). The stream header is the caller's job
// (AppendHeader once per stream); BinarySink handles both.
func AppendEvent(dst []byte, e *Event) ([]byte, error) {
	tag := kindTag(e.Kind)
	if tag == 0 {
		return dst, fmt.Errorf("trace: kind %q has no binary encoding", e.Kind)
	}
	sp := payloadScratch.Get().(*[]byte)
	p := appendPayload((*sp)[:0], tag, e)
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	dst = append(dst, p...)
	*sp = p
	payloadScratch.Put(sp)
	return dst, nil
}

// appendPayload encodes the kind-tagged field layout. decodePayload is
// the exact mirror; change both together and bump BinaryVersion.
func appendPayload(p []byte, tag byte, e *Event) []byte {
	p = append(p, tag)
	p = binary.AppendVarint(p, e.T)
	p = binary.AppendVarint(p, int64(e.Vehicle))
	switch tag {
	case tagFrame:
		p = appendOptInt(p, e.Sender)
		p = appendOptInt(p, e.Slot)
		p = appendOptInt64(p, e.Round)
		p = appendString(p, e.Status)
	case tagSymptom:
		p = appendString(p, e.Symptom)
		p = appendString(p, e.Subject)
		p = appendOptInt(p, e.Observer)
		p = binary.AppendVarint(p, int64(e.Count))
		p = appendFloat(p, e.Dev)
	case tagVerdict:
		p = appendString(p, e.Subject)
		p = appendString(p, e.Class)
		p = appendString(p, e.Pattern)
		p = appendString(p, e.Action)
		p = appendFloat(p, e.Conf)
	case tagTrust:
		p = appendString(p, e.Subject)
		p = appendOptFloat(p, e.Trust)
	case tagInjection:
		p = appendString(p, e.Class)
		p = appendString(p, e.Subject)
		p = appendString(p, e.Detail)
	case tagVehicle:
		p = appendString(p, e.Detail)
	case tagTruth:
		p = appendString(p, e.Subject)
		p = appendString(p, e.Class)
		p = appendString(p, e.Detail)
	case tagAdvice:
		p = appendString(p, e.Source)
		p = appendString(p, e.Subject)
		p = appendString(p, e.Class)
		p = appendString(p, e.Action)
	}
	return p
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func appendFloat(p []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(f))
}

func appendOptInt(p []byte, v *int) []byte {
	if v == nil {
		return append(p, 0)
	}
	p = append(p, 1)
	return binary.AppendVarint(p, int64(*v))
}

func appendOptInt64(p []byte, v *int64) []byte {
	if v == nil {
		return append(p, 0)
	}
	p = append(p, 1)
	return binary.AppendVarint(p, *v)
}

func appendOptFloat(p []byte, v *float64) []byte {
	if v == nil {
		return append(p, 0)
	}
	p = append(p, 1)
	return appendFloat(p, *v)
}

// BinarySink encodes events as length-prefixed binary records — the
// compact counterpart of NDJSONSink behind the same Sink interface. The
// stream header is emitted with the first record (or at Close for an
// empty stream, so even an event-free capture sniffs as binary). Record
// reuses one scratch buffer: steady-state encoding allocates nothing.
type BinarySink struct {
	w           io.Writer
	c           io.Closer
	buf         []byte
	wroteHeader bool
}

// NewBinarySink returns a sink writing the binary trace format to w. If w
// is also an io.Closer, Close closes it.
func NewBinarySink(w io.Writer) *BinarySink {
	s := &BinarySink{w: w}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Reset makes the sink start a new stream: the next record is preceded
// by a stream header again.
func (s *BinarySink) Reset() { s.wroteHeader = false }

// Record encodes e as one binary record.
func (s *BinarySink) Record(e *Event) error {
	s.buf = s.buf[:0]
	if !s.wroteHeader {
		s.buf = AppendHeader(s.buf)
	}
	buf, err := AppendEvent(s.buf, e)
	if err != nil {
		return err
	}
	s.buf = buf
	if _, err := s.w.Write(buf); err != nil {
		return err
	}
	s.wroteHeader = true
	return nil
}

// Close writes the header of a still-empty stream and closes the
// underlying writer when it is an io.Closer.
func (s *BinarySink) Close() error {
	var werr error
	if !s.wroteHeader {
		_, werr = s.w.Write(AppendHeader(nil))
		s.wroteHeader = true
	}
	if s.c != nil {
		if cerr := s.c.Close(); werr == nil {
			werr = cerr
		}
	}
	return werr
}

// maxInterned bounds the decoder's string-intern table so a hostile
// stream full of unique subjects cannot grow it without limit; past the
// bound strings are still decoded, just freshly allocated.
const maxInterned = 4096

// BinaryReader is the streaming decoder for the binary trace format, with
// the same corruption-recovery stance as the NDJSON Reader: a record that
// fails to decode is counted and skipped (the frame length bounds the
// damage), while framing-level corruption — an unparsable or oversized
// length prefix, after which record boundaries are unknowable — poisons
// the remainder of the stream, which is reported once and abandoned.
//
// Decoding is allocation-free in steady state: record payloads land in a
// reused scratch buffer, strings are interned per reader, and the
// pointer-typed event fields (Sender/Slot/Round/Observer/Trust) point
// into reader-owned scratch. Those pointers are valid until the next call
// to Next — a consumer retaining frame, symptom or trust events across
// calls must copy the pointed-to values (string fields are stable).
type BinaryReader struct {
	br  *bufio.Reader
	max int

	headerDone bool
	dead       bool  // framing corrupted: remaining bytes are unreadable
	err        error // sticky fatal error (bad magic / unsupported version)
	off        int64 // bytes consumed, for corruption offsets

	records int
	corrupt int
	errs    []error

	buf      []byte
	interned map[string]string

	// Pointer-field scratch the returned events point into.
	sender, slot, observer int
	round                  int64
	trust                  float64
}

// NewBinaryReader wraps r. The per-record payload bound defaults to
// DefaultMaxLineBytes; use SetMaxRecordBytes to change it before reading.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return newBinaryReader(bufio.NewReaderSize(r, 64<<10))
}

func newBinaryReader(br *bufio.Reader) *BinaryReader {
	return &BinaryReader{
		br:       br,
		max:      DefaultMaxLineBytes,
		interned: make(map[string]string),
	}
}

// SetMaxRecordBytes bounds one record's payload; a larger length prefix
// is indistinguishable from framing corruption and poisons the stream.
// Values < 1 restore the default.
func (r *BinaryReader) SetMaxRecordBytes(n int) {
	if n < 1 {
		n = DefaultMaxLineBytes
	}
	r.max = n
}

// Records returns the number of records consumed so far (corrupt ones
// included), mirroring Reader.Lines.
func (r *BinaryReader) Records() int { return r.records }

// Corrupt returns the number of records skipped as undecodable, plus one
// for a poisoned stream tail.
func (r *BinaryReader) Corrupt() int { return r.corrupt }

// CorruptErrors returns recovery detail for skipped records — each error
// names the 1-based record number and byte offset — capped like the
// NDJSON reader's.
func (r *BinaryReader) CorruptErrors() []error { return r.errs }

func (r *BinaryReader) noteCorrupt(err error) {
	r.corrupt++
	if len(r.errs) < maxCorruptErrors {
		r.errs = append(r.errs, err)
	}
}

// readHeader consumes and validates the stream header. An empty stream is
// accepted as zero events; anything else that is not a v1 header is a
// fatal (sticky) error.
func (r *BinaryReader) readHeader() error {
	var hdr [binaryHeaderLen]byte
	n, err := io.ReadFull(r.br, hdr[:])
	r.off += int64(n)
	switch {
	case err == io.EOF:
		r.headerDone = true // empty stream: no events
		return nil
	case err == io.ErrUnexpectedEOF && n >= len(binaryMagic) && HasBinaryHeader(hdr[:n]):
		// The magic is intact but the version byte was cut off: that is
		// truncation of a binary stream, not a foreign format.
		r.noteCorrupt(fmt.Errorf("trace: record 1 at offset %d: truncated stream header", n))
		r.dead = true
		r.headerDone = true
		return nil
	case err == io.ErrUnexpectedEOF || (err == nil && !HasBinaryHeader(hdr[:])):
		r.err = fmt.Errorf("trace: not a binary trace stream (bad magic at offset 0)")
		return r.err
	case err != nil:
		return err
	case hdr[len(binaryMagic)] != BinaryVersion:
		r.err = fmt.Errorf("trace: binary trace version %d not supported (this decoder reads version %d)",
			hdr[len(binaryMagic)], BinaryVersion)
		return r.err
	}
	r.headerDone = true
	return nil
}

// readFrameLen reads one record's uvarint length prefix. io.EOF is
// returned only at a clean record boundary; any other failure is noted as
// corruption and poisons the stream.
func (r *BinaryReader) readFrameLen() (int, error) {
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := r.br.ReadByte()
		if err == io.EOF {
			if i == 0 {
				return 0, io.EOF
			}
			r.dead = true
			r.noteCorrupt(fmt.Errorf("trace: record %d at offset %d: truncated record header", r.records+1, r.off-int64(i)))
			return 0, io.EOF
		}
		if err != nil {
			return 0, err
		}
		r.off++
		if i == binary.MaxVarintLen64 || (shift == 63 && b > 1) {
			r.dead = true
			r.noteCorrupt(fmt.Errorf("trace: record %d at offset %d: malformed record length", r.records+1, r.off-int64(i)-1))
			return 0, io.EOF
		}
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if x > uint64(r.max) {
				r.dead = true
				r.noteCorrupt(fmt.Errorf("trace: record %d at offset %d: record length %d exceeds %d-byte bound",
					r.records+1, r.off-int64(i)-1, x, r.max))
				return 0, io.EOF
			}
			return int(x), nil
		}
		shift += 7
	}
}

// Next returns the next decodable event. It returns io.EOF at the end of
// the readable stream (a poisoned tail included — the corruption is
// reported through Corrupt/CorruptErrors, as with the NDJSON reader); a
// non-EOF error is a transport error or an unusable stream (bad magic,
// unsupported version).
func (r *BinaryReader) Next() (Event, error) {
	if r.err != nil {
		return Event{}, r.err
	}
	if !r.headerDone {
		if err := r.readHeader(); err != nil {
			return Event{}, err
		}
	}
	for {
		if r.dead {
			return Event{}, io.EOF
		}
		length, err := r.readFrameLen()
		if err != nil {
			return Event{}, err
		}
		if cap(r.buf) < length {
			r.buf = make([]byte, length, length+length/2)
		}
		payload := r.buf[:length]
		recOff := r.off
		n, err := io.ReadFull(r.br, payload)
		r.off += int64(n)
		r.records++
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.dead = true
			r.noteCorrupt(fmt.Errorf("trace: record %d at offset %d: truncated payload (%d of %d bytes)",
				r.records, recOff, n, length))
			return Event{}, io.EOF
		}
		if err != nil {
			return Event{}, err
		}
		e, derr := r.decodePayload(payload)
		if derr != nil {
			r.noteCorrupt(fmt.Errorf("trace: record %d at offset %d: %v", r.records, recOff, derr))
			continue
		}
		return e, nil
	}
}

// ReadAll decodes the whole stream, invoking fn per event. It returns the
// first error other than io.EOF.
func (r *BinaryReader) ReadAll(fn func(Event)) error {
	for {
		e, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(e)
	}
}

// decodePayload is appendPayload's mirror. It must consume the payload
// exactly: trailing bytes mean the layouts disagree and the record is
// corrupt, not silently truncated.
func (r *BinaryReader) decodePayload(p []byte) (Event, error) {
	d := payloadDecoder{p: p}
	tag := d.byte()
	var e Event
	if tag == 0 || int(tag) >= len(kindNames) || d.err != nil {
		return e, fmt.Errorf("unknown kind tag 0x%02x", tag)
	}
	e.Kind = kindNames[tag]
	e.T = d.varint()
	e.Vehicle = int(d.varint())
	switch tag {
	case tagFrame:
		if d.opt() {
			r.sender = int(d.varint())
			e.Sender = &r.sender
		}
		if d.opt() {
			r.slot = int(d.varint())
			e.Slot = &r.slot
		}
		if d.opt() {
			r.round = d.varint()
			e.Round = &r.round
		}
		e.Status = r.intern(d.bytes())
	case tagSymptom:
		e.Symptom = r.intern(d.bytes())
		e.Subject = r.intern(d.bytes())
		if d.opt() {
			r.observer = int(d.varint())
			e.Observer = &r.observer
		}
		e.Count = int(d.varint())
		e.Dev = d.float()
	case tagVerdict:
		e.Subject = r.intern(d.bytes())
		e.Class = r.intern(d.bytes())
		e.Pattern = r.intern(d.bytes())
		e.Action = r.intern(d.bytes())
		e.Conf = d.float()
	case tagTrust:
		e.Subject = r.intern(d.bytes())
		if d.opt() {
			r.trust = d.float()
			e.Trust = &r.trust
		}
	case tagInjection:
		e.Class = r.intern(d.bytes())
		e.Subject = r.intern(d.bytes())
		e.Detail = r.intern(d.bytes())
	case tagVehicle:
		e.Detail = r.intern(d.bytes())
	case tagTruth:
		e.Subject = r.intern(d.bytes())
		e.Class = r.intern(d.bytes())
		e.Detail = r.intern(d.bytes())
	case tagAdvice:
		e.Source = r.intern(d.bytes())
		e.Subject = r.intern(d.bytes())
		e.Class = r.intern(d.bytes())
		e.Action = r.intern(d.bytes())
	}
	if d.err != nil {
		return Event{}, d.err
	}
	if d.off != len(p) {
		return Event{}, fmt.Errorf("%d trailing payload bytes", len(p)-d.off)
	}
	return e, nil
}

// intern returns a stable string for b, reusing prior decodes. Event
// vocabularies (kinds, FRU names, statuses, patterns) are small, so in
// steady state this is a hash lookup and no allocation.
func (r *BinaryReader) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.interned) < maxInterned {
		r.interned[s] = s
	}
	return s
}

// payloadDecoder cursors over one record payload; the first failure
// sticks in err and all subsequent reads return zero values.
type payloadDecoder struct {
	p   []byte
	off int
	err error
}

func (d *payloadDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated field at payload byte %d", d.off)
	}
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil || d.off >= len(d.p) {
		d.fail()
		return 0
	}
	b := d.p[d.off]
	d.off++
	return b
}

func (d *payloadDecoder) opt() bool { return d.byte() == 1 }

func (d *payloadDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) bytes() []byte {
	if d.err != nil {
		return nil
	}
	n, w := binary.Uvarint(d.p[d.off:])
	if w <= 0 || n > uint64(len(d.p)-d.off-w) {
		d.fail()
		return nil
	}
	d.off += w
	b := d.p[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *payloadDecoder) float() float64 {
	if d.err != nil || d.off+8 > len(d.p) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p[d.off:]))
	d.off += 8
	return v
}
