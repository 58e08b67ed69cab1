// Package ckpt is the binary encoding substrate of engine checkpoints
// ("DCS-C", wire version 1): a small, dependency-free codec every stateful
// subsystem uses to serialize its numeric state into one canonical byte
// stream, in the style of the binary trace format (DESIGN §11) — magic +
// version header, uvarint framing, zigzag varints for signed integers,
// IEEE 754 bits for float64 so every float round-trips exactly.
//
// A checkpoint stream is a header followed by named sections:
//
//	stream  = magic[4] version[1] section* end
//	section = uvarint(len(name)) name uvarint(len(body)) body
//	end     = uvarint(0)
//
// Section bodies are opaque to the framing; each subsystem owns its body
// layout (pinned by the golden fixture golden_ckpt_v1.bin). Sections are
// written and read in a fixed order — the checkpoint is canonical: two
// engines holding identical state serialize to identical bytes, which is
// what makes "restored run == uninterrupted run" testable at the byte
// level.
//
// Evolution rules mirror the trace codec: the version byte names the
// layout of every section; a decoder refuses versions it does not know,
// and any layout change bumps the version.
//
// A Decoder reads the stream in place: section bodies and Bytes8 results
// alias the caller's bytes, so a Restore method copies whatever it keeps
// (String already does), and the caller may reuse the stream once its
// restore returns. Every count read through Len is bounded by the bytes
// left in its section — each element encodes to at least one byte — so
// corrupt input cannot drive an allocation larger than the input itself.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic opens every checkpoint stream. The first byte is outside ASCII so
// no text stream can alias it.
var Magic = [4]byte{0xD2, 'C', 'K', 'P'}

// Version is the current checkpoint wire version.
const Version = 1

// maxSectionBytes bounds one section body so a corrupt length prefix
// cannot drive an allocation by itself (64 MiB is orders of magnitude
// beyond any real cluster snapshot).
const maxSectionBytes = 64 << 20

// maxNameBytes bounds a section name.
const maxNameBytes = 256

// maxSections bounds the section directory, which the decoder scans by
// name (an engine checkpoint carries at most 12 sections).
const maxSections = 64

// ErrBadMagic reports a stream that does not open with the checkpoint
// magic.
var ErrBadMagic = errors.New("ckpt: bad magic (not a checkpoint stream)")

// Encoder builds one checkpoint stream section by section. The zero value
// is not usable; construct with NewEncoder.
type Encoder struct {
	buf  []byte // current section body
	out  []byte // completed stream (header + finished sections)
	name string // current section name ("" = none open)
}

// NewEncoder returns an encoder with the stream header already written.
func NewEncoder() *Encoder {
	e := &Encoder{out: make([]byte, 0, 4096)}
	e.Reset()
	return e
}

// Reset discards the stream built so far and starts a new one with the
// header written, keeping the buffers' capacity: a warm encoder encodes
// its next stream without allocating. A slice returned by Bytes is
// invalid after Reset.
func (e *Encoder) Reset() {
	e.out = append(e.out[:0], Magic[:]...)
	e.out = append(e.out, Version)
	e.buf = e.buf[:0]
	e.name = ""
}

// Begin opens a named section; every Put call until End lands in its body.
func (e *Encoder) Begin(name string) {
	if e.name != "" {
		panic(fmt.Sprintf("ckpt: Begin(%q) with section %q still open", name, e.name))
	}
	if name == "" || len(name) > maxNameBytes {
		panic(fmt.Sprintf("ckpt: bad section name %q", name))
	}
	e.name = name
	e.buf = e.buf[:0]
}

// End closes the current section and appends it to the stream.
func (e *Encoder) End() {
	if e.name == "" {
		panic("ckpt: End without Begin")
	}
	e.out = binary.AppendUvarint(e.out, uint64(len(e.name)))
	e.out = append(e.out, e.name...)
	e.out = binary.AppendUvarint(e.out, uint64(len(e.buf)))
	e.out = append(e.out, e.buf...)
	e.name = ""
}

// Bytes finalizes the stream (terminator appended) and returns it. The
// slice aliases the encoder's buffer; the encoder must not be used again
// until Reset.
func (e *Encoder) Bytes() []byte {
	if e.name != "" {
		panic(fmt.Sprintf("ckpt: Bytes with section %q still open", e.name))
	}
	return binary.AppendUvarint(e.out, 0)
}

func (e *Encoder) Uvarint(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Encoder) Varint(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }
func (e *Encoder) Int(v int)         { e.Varint(int64(v)) }
func (e *Encoder) Uint64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Float32 stores the exact IEEE 754 single-precision bits.
func (e *Encoder) Float32(v float32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
}

func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes8 appends a length-prefixed byte string.
func (e *Encoder) Bytes8(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads one checkpoint stream in place. Construct with
// NewDecoder; then Section/Need per section and the typed getters inside
// it. Decoding errors are sticky: the first corruption poisons every
// later read, so callers may check Err once after a batch of reads.
type Decoder struct {
	sections []section // stream order
	body     []byte    // current section remainder
	name     string
	err      error
}

// section is one directory entry; name and body alias the stream.
type section struct {
	name, body []byte
}

// NewDecoder parses the framing of a complete checkpoint stream: header,
// section directory, terminator. Section bodies are not interpreted, and
// nothing is copied: the decoder aliases stream, which must stay
// unmodified while it is in use.
func NewDecoder(stream []byte) (*Decoder, error) {
	if len(stream) < len(Magic)+1 || [4]byte(stream[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := stream[4]; v != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (decoder knows %d)", v, Version)
	}
	d := &Decoder{sections: make([]section, 0, 16)}
	rest := stream[5:]
	for {
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("ckpt: truncated section header at offset %d", len(stream)-len(rest))
		}
		rest = rest[n:]
		if nameLen == 0 {
			break // terminator
		}
		if nameLen > maxNameBytes || uint64(len(rest)) < nameLen {
			return nil, fmt.Errorf("ckpt: bad section name length %d", nameLen)
		}
		name := rest[:nameLen]
		rest = rest[nameLen:]
		bodyLen, n := binary.Uvarint(rest)
		if n <= 0 || bodyLen > maxSectionBytes || uint64(len(rest[n:])) < bodyLen {
			return nil, fmt.Errorf("ckpt: bad body length for section %q", name)
		}
		rest = rest[n:]
		if d.find(string(name)) >= 0 {
			return nil, fmt.Errorf("ckpt: duplicate section %q", name)
		}
		if len(d.sections) == maxSections {
			return nil, fmt.Errorf("ckpt: more than %d sections", maxSections)
		}
		d.sections = append(d.sections, section{name: name, body: rest[:bodyLen]})
		rest = rest[bodyLen:]
	}
	return d, nil
}

// find returns the directory index of the named section, or -1.
func (d *Decoder) find(name string) int {
	for i := range d.sections {
		if string(d.sections[i].name) == name {
			return i
		}
	}
	return -1
}

// Has reports whether the stream carries the named section.
func (d *Decoder) Has(name string) bool { return d.find(name) >= 0 }

// Section positions the decoder at the start of the named section;
// ok=false if the stream does not carry it.
func (d *Decoder) Section(name string) bool {
	i := d.find(name)
	if i < 0 {
		return false
	}
	d.body, d.name = d.sections[i].body, name
	return true
}

// Need positions the decoder at a section that must exist.
func (d *Decoder) Need(name string) error {
	if !d.Section(name) {
		return fmt.Errorf("ckpt: missing section %q", name)
	}
	return nil
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread byte count of the current section.
func (d *Decoder) Remaining() int { return len(d.body) }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: section %q: truncated or corrupt %s", d.name, what)
	}
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.body)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.body = d.body[n:]
	return v
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.body)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.body = d.body[n:]
	return v
}

func (d *Decoder) Int() int { return int(d.Varint()) }

func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.body) < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.body)
	d.body = d.body[8:]
	return v
}

func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

func (d *Decoder) Float32() float32 {
	if d.err != nil {
		return 0
	}
	if len(d.body) < 4 {
		d.fail("float32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.body)
	d.body = d.body[4:]
	return math.Float32frombits(v)
}

func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.body) < 1 {
		d.fail("bool")
		return false
	}
	v := d.body[0]
	d.body = d.body[1:]
	if v > 1 {
		d.fail("bool")
		return false
	}
	return v == 1
}

// Bytes8 reads a length-prefixed byte string. The returned slice aliases
// the stream; callers that retain it must copy.
func (d *Decoder) Bytes8() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxSectionBytes || uint64(len(d.body)) < n {
		d.fail("byte string")
		return nil
	}
	b := d.body[:n]
	d.body = d.body[n:]
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes8()) }

// Len is a checked element-count read: a non-negative varint bounded by
// limit and by the bytes left in the section. Every element of a counted
// list encodes to at least one byte, so a count beyond the remainder is
// corruption, and corrupt input cannot drive huge allocations.
func (d *Decoder) Len(limit int) int {
	n := d.Varint()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(limit) || n > int64(len(d.body)) {
		d.fail(fmt.Sprintf("length (got %d, limit %d, %d bytes left)", n, limit, len(d.body)))
		return 0
	}
	return int(n)
}

// MakeSlice reads a checked element count (see Len) and returns it with
// an empty slice to decode that many elements into. This is the one
// sizing policy for restored slices: the capacity carries append
// headroom (a quarter plus four) over the count, because restored
// histories keep growing and an exact-size slice would be copied whole by
// the first append after the restore. A zero count yields a nil slice.
func MakeSlice[T any](d *Decoder, limit int) ([]T, int) {
	n := d.Len(limit)
	if n == 0 {
		return nil, 0
	}
	return make([]T, 0, n+n/4+4), n
}

// Snapshotter is the one interface every stateful subsystem implements for
// checkpointing: Snapshot serializes the subsystem's semantic state into
// the encoder's current section; Restore reads it back from the decoder's
// current section, overwriting in-memory state. Restore is called on a
// freshly reconstructed subsystem (same configuration, same build path),
// so it only carries mutable run state, never configuration.
type Snapshotter interface {
	Snapshot(e *Encoder)
	Restore(d *Decoder) error
}
