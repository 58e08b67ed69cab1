// Package ckpt is the binary encoding substrate of engine checkpoints
// ("DCS-C", wire version 1): a small codec every stateful subsystem uses
// to serialize its numeric state into one canonical byte stream, in the
// style of the binary trace format (DESIGN §11) — magic + version header,
// uvarint framing, zigzag varints for signed integers, IEEE 754 bits for
// floats so every float round-trips exactly.
//
// A checkpoint stream is a header followed by named sections:
//
//	stream  = magic[4] version[1] section* end
//	section = uvarint(len(name)) name uvarint(len(body)) body
//	end     = uvarint(0)
//
// The Encoder and Decoder own the framing. Section bodies are opaque to
// it: each subsystem owns its body layout (pinned by the golden fixture
// golden_ckpt_v1.bin) and writes it once, as the field list of its Code
// method (Snapshotter). A Coder runs that list in either direction, so
// the encode/decode branch lives only here. Sections are written and read
// in a fixed order — the checkpoint is canonical: two engines holding
// identical state serialize to identical bytes, which is what makes
// "restored run == uninterrupted run" testable at the byte level.
//
// Evolution rules mirror the trace codec: the version byte names the
// layout of every section; a decoder refuses versions it does not know,
// and any layout change bumps the version.
//
// A Decoder reads the stream in place, aliasing the caller's bytes; every
// decoding primitive copies what it stores, so the caller may reuse the
// stream once its restore returns. Every count is bounded by the bytes
// left in its section — each element encodes to at least one byte — so
// corrupt input cannot drive an allocation larger than the input itself,
// and every key and enum is range-checked, never narrowed by a cast.
package ckpt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"decos/internal/seglog"
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

// Snapshotter is the one interface every stateful subsystem implements for
// checkpointing. Code lists the subsystem's semantic state once, through
// the Coder's primitives: encoding writes each field into the current
// section, decoding overwrites it from there. Decoding runs on a freshly
// reconstructed subsystem (same configuration, same build path), so the
// list carries mutable run state, never configuration; side effects only
// a restore has (dropping events, re-arming timers, resizing derived
// scratch) sit in the subsystem's one `if c.Decoding()` block.
type Snapshotter interface {
	Code(c *Coder) error
}

// Encoder builds one checkpoint stream section by section. The zero value
// is not usable; construct with NewEncoder.
type Encoder struct {
	buf   []byte // current section body
	out   []byte // completed stream (header + finished sections)
	name  string // current section name ("" = none open)
	coder Coder
}

// NewEncoder returns an encoder with the stream header already written.
func NewEncoder() *Encoder {
	e := &Encoder{out: make([]byte, 0, 4096)}
	e.coder.enc = e
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

// Begin opens a named section; every value coded until End lands in its
// body.
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

// Put writes s as the named section.
func (e *Encoder) Put(name string, s Snapshotter) {
	e.Begin(name)
	s.Code(&e.coder)
	e.End()
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

// Decoder reads one checkpoint stream in place. Construct with
// NewDecoder, then Get each section. Decoding errors are sticky: the first
// corruption poisons every later read, so callers may check Err once
// after a batch of reads.
type Decoder struct {
	sections []section // stream order
	body     []byte    // current section remainder
	name     string
	err      error
	coder    Coder
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
	d.coder.dec = d
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

// Need positions the decoder at the start of the named section, which
// must exist.
func (d *Decoder) Need(name string) error {
	i := d.find(name)
	if i < 0 {
		return fmt.Errorf("ckpt: missing section %q", name)
	}
	d.body, d.name = d.sections[i].body, name
	return nil
}

// Get overwrites s from the named section, which must exist.
func (d *Decoder) Get(name string, s Snapshotter) error {
	if err := d.Need(name); err != nil {
		return err
	}
	return s.Code(&d.coder)
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(what string) {
	d.failf("truncated or corrupt %s", what)
}

// failf records a decoding error addressed to the current section,
// unless an earlier one is already set.
func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: section %q: %s", d.name, fmt.Sprintf(format, args...))
	}
}

// next consumes the section's next n bytes; nil after any failure.
func (d *Decoder) next(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.body)) < n {
		d.fail(what)
		return nil
	}
	b := d.body[:n]
	d.body = d.body[n:]
	return b
}

func (d *Decoder) uvarint() uint64 {
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

func (d *Decoder) varint() int64 {
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

// Coder runs a section's field list in one direction: it wraps either the
// encoder or the decoder. Its primitives take a pointer to the field, so
// one Code method both writes and restores it. Decoding errors are
// sticky: after the first, every primitive stores its type's zero value
// and Err reports that first failure.
type Coder struct {
	enc *Encoder
	dec *Decoder
}

// Decoding reports whether the coder restores (true) or writes (false).
func (c *Coder) Decoding() bool { return c.dec != nil }

// Err returns the first decoding error; an encoding coder has none.
func (c *Coder) Err() error {
	if c.dec == nil {
		return nil
	}
	return c.dec.err
}

// Fail records err as the decoding error unless one is already set. A
// Code method reports a decoded value its subsystem refuses through it.
func (c *Coder) Fail(err error) {
	if c.dec != nil && c.dec.err == nil {
		c.dec.err = err
	}
}

// Int codes *v as a zigzag varint.
func (c *Coder) Int(v *int) { Varint(c, v) }

// Uint64 codes the 8 little-endian bytes of *v.
func (c *Coder) Uint64(v *uint64) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, *v)
	} else if b := c.dec.next(8, "uint64"); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	} else {
		*v = 0
	}
}

// Float64 codes the exact IEEE 754 bits of *v.
func (c *Coder) Float64(v *float64) {
	b := math.Float64bits(*v)
	c.Uint64(&b)
	*v = math.Float64frombits(b)
}

// Float32 codes the exact IEEE 754 single-precision bits of *v.
func (c *Coder) Float32(v *float32) {
	if c.enc != nil {
		c.enc.buf = binary.LittleEndian.AppendUint32(c.enc.buf, math.Float32bits(*v))
	} else if b := c.dec.next(4, "float32"); b != nil {
		*v = math.Float32frombits(binary.LittleEndian.Uint32(b))
	} else {
		*v = 0
	}
}

// Bool codes *v as one byte, 0 or 1; decoding refuses any other byte.
func (c *Coder) Bool(v *bool) {
	if c.enc != nil {
		b := byte(0)
		if *v {
			b = 1
		}
		c.enc.buf = append(c.enc.buf, b)
		return
	}
	b := c.dec.next(1, "bool")
	if b != nil && b[0] > 1 {
		c.dec.fail("bool")
	}
	*v = c.dec.err == nil && b[0] == 1
}

// Bytes codes a length-prefixed byte string. Decoding copies it into the
// field's own storage (*v[:0]), never aliasing the stream.
func (c *Coder) Bytes(v *[]byte) {
	if c.enc != nil {
		c.enc.buf = append(binary.AppendUvarint(c.enc.buf, uint64(len(*v))), *v...)
	} else if b := c.dec.bytes(); cap(*v) >= len(b) {
		*v = (*v)[:len(b)] // a self-assignment, so a caller's bytes do not escape
		copy(*v, b)
	} else {
		*v = append([]byte(nil), b...)
	}
}

// String codes a length-prefixed string.
func (c *Coder) String(v *string) {
	if c.enc != nil {
		c.enc.buf = append(binary.AppendUvarint(c.enc.buf, uint64(len(*v))), *v...)
	} else {
		*v = string(c.dec.bytes())
	}
}

// bytes reads a length-prefixed byte string, aliasing the stream.
func (d *Decoder) bytes() []byte { return d.next(d.uvarint(), "byte string") }

// Len codes an element count. Decoding checks it: a non-negative varint
// bounded by limit and by the bytes left in the section. Every element of
// a counted list encodes to at least one byte, so a count beyond the
// remainder is corruption, and corrupt input cannot drive huge
// allocations.
func (c *Coder) Len(n *int, limit int) {
	if c.enc != nil {
		c.Int(n)
		return
	}
	d := c.dec
	x := d.varint()
	if d.err == nil && (x < 0 || x > int64(limit) || x > int64(len(d.body))) {
		d.failf("truncated or corrupt length (got %d, limit %d, %d bytes left)", x, limit, len(d.body))
	}
	if d.err != nil {
		x = 0
	}
	*n = int(x)
}

// Count codes a structural count: one the build path determines, such as
// a cluster's monitors. Encoding writes n; decoding fails unless the
// stream holds exactly n, with an error naming what is counted.
func (c *Coder) Count(n int, what string) {
	if c.enc != nil {
		c.Int(&n)
	} else if got := c.dec.varint(); c.dec.err == nil && got != int64(n) {
		c.dec.failf("checkpoint has %d %s, build has %d", got, what, n)
	}
}

type signed interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

type unsigned interface {
	~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Varint codes a signed integer of any width as a zigzag varint;
// decoding refuses a value v's type cannot hold.
func Varint[T signed](c *Coder, v *T) {
	if c.enc != nil {
		c.enc.buf = binary.AppendVarint(c.enc.buf, int64(*v))
		return
	}
	x := c.dec.varint()
	if int64(T(x)) != x {
		c.dec.failf("%T %d overflows", *v, x)
		x = 0
	}
	*v = T(x)
}

// Uvarint codes an unsigned integer of any width as a uvarint; decoding
// refuses a value v's type cannot hold.
func Uvarint[T unsigned](c *Coder, v *T) {
	if c.enc != nil {
		c.enc.buf = binary.AppendUvarint(c.enc.buf, uint64(*v))
		return
	}
	x := c.dec.uvarint()
	if uint64(T(x)) != x {
		c.dec.failf("%T %d overflows", *v, x)
		x = 0
	}
	*v = T(x)
}

// Index codes a key that addresses one of n slots (a node, an FRU, a
// channel) as a varint. Decoding refuses a key outside [0, n), with an
// error naming what the key is.
func Index[K signed | unsigned](c *Coder, k *K, n int, what string) {
	if c.enc != nil {
		c.enc.buf = binary.AppendVarint(c.enc.buf, int64(*k))
		return
	}
	x := c.dec.varint()
	if c.dec.err == nil && (x < 0 || x >= int64(n) || int64(K(x)) != x) {
		c.dec.failf("%s %d out of range [0, %d)", what, x, n)
	}
	if c.dec.err != nil {
		x = 0
	}
	*k = K(x)
}

// Enum codes an enumeration value below n: a varint for a signed type, a
// uvarint for an unsigned one. Decoding refuses any other value.
func Enum[T signed | unsigned](c *Coder, v *T, n T) {
	isSigned := ^T(0) < 0
	if c.enc != nil {
		if isSigned {
			c.enc.buf = binary.AppendVarint(c.enc.buf, int64(*v))
		} else {
			c.enc.buf = binary.AppendUvarint(c.enc.buf, uint64(*v))
		}
		return
	}
	var u uint64
	if isSigned {
		u = uint64(c.dec.varint()) // a negative value wraps past any n
	} else {
		u = c.dec.uvarint()
	}
	if c.dec.err == nil && u >= uint64(n) {
		c.dec.failf("%T %d out of range [0, %d)", *v, int64(u), n)
	}
	if c.dec.err != nil {
		u = 0
	}
	*v = T(u)
}

// reserve empties s and makes room for n elements. A slice that must grow
// gets a quarter of headroom over n, because restored histories keep
// growing and an exact fit would be copied whole by the next append.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n+n/4)
	}
	return s[:0]
}

// Slice codes a counted list, each element through elem. Decoding clears
// *s and refills it in place, growing its storage at most once; the count
// is checked as by Len.
func Slice[T any](c *Coder, s *[]T, limit int, elem func(*Coder, *T)) {
	n := len(*s)
	c.Len(&n, limit)
	if c.enc != nil {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	*s = reserve(*s, n)
	var zero T
	for i := 0; i < n && c.dec.err == nil; i++ {
		*s = append(*s, zero)
		elem(c, &(*s)[i])
	}
}

// Sparse codes the slots of an n-slot table for which set holds, in slot
// order, behind their count. elem codes slot i's entry, its key included;
// decoding, elem ignores i and fills the slot the decoded key names (the
// caller clears the table first).
func Sparse(c *Coder, n int, set func(i int) bool, elem func(c *Coder, i int)) {
	k := 0
	for i := 0; i < n && c.enc != nil; i++ {
		if set(i) {
			k++
		}
	}
	c.Len(&k, n)
	for i := 0; k > 0 && c.Err() == nil; i, k = i+1, k-1 {
		for c.enc != nil && !set(i) {
			i++
		}
		elem(c, i)
	}
}

// Log is Slice for a segmented log. Decoding empties l onto its free list
// and appends onto those retired segments, so a log decoded again and
// again holds at most one segment more than its longest decoded length.
func Log[T any](c *Coder, l *seglog.Log[T], limit int, elem func(*Coder, *T)) {
	n := l.Len()
	c.Len(&n, limit)
	if c.enc != nil {
		for k := 0; k < l.NumSegs(); k++ {
			seg := l.Seg(k)
			for i := range seg {
				elem(c, &seg[i])
			}
		}
		return
	}
	l.Reset()
	var zero T
	for i := 0; i < n && c.dec.err == nil; i++ {
		l.Append(zero)
		seg := l.Seg(l.NumSegs() - 1)
		elem(c, &seg[len(seg)-1])
	}
}

// entry is one map entry of SortedMap.
type entry[K, V any] struct {
	k K
	v V
}

// SortedMap codes a map as a counted list of entries in ascending key
// order, so the encoding is canonical. Decoding clears *m and refills it
// (allocating it if nil); val sees its entry's key.
func SortedMap[K cmp.Ordered, V any](c *Coder, m *map[K]V, limit int, key func(*Coder, *K), val func(*Coder, K, *V)) {
	var ents []entry[K, V]
	if c.enc != nil {
		ents = make([]entry[K, V], 0, len(*m))
		for k, v := range *m {
			ents = append(ents, entry[K, V]{k, v})
		}
		slices.SortFunc(ents, func(a, b entry[K, V]) int { return cmp.Compare(a.k, b.k) })
	}
	Slice(c, &ents, limit, func(c *Coder, e *entry[K, V]) {
		key(c, &e.k)
		val(c, e.k, &e.v)
	})
	if c.dec == nil {
		return
	}
	if *m == nil && len(ents) > 0 {
		*m = make(map[K]V, len(ents))
	}
	clear(*m)
	for _, e := range ents {
		(*m)[e.k] = e.v
	}
}
