package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"decos/internal/seglog"
)

// stream frames the given sections (name, body pairs) by hand, so tests
// can build streams the Encoder refuses to produce.
func stream(sections ...string) []byte {
	s := append([]byte{}, Magic[:]...)
	s = append(s, Version)
	for i := 0; i+1 < len(sections); i += 2 {
		s = binary.AppendUvarint(s, uint64(len(sections[i])))
		s = append(s, sections[i]...)
		s = binary.AppendUvarint(s, uint64(len(sections[i+1])))
		s = append(s, sections[i+1]...)
	}
	return binary.AppendUvarint(s, 0)
}

// at returns a decoder positioned at section name of s.
func at(t *testing.T, s []byte, name string) *Decoder {
	t.Helper()
	d, err := NewDecoder(s)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if err := d.Need(name); err != nil {
		t.Fatal(err)
	}
	return d
}

// vals holds one or more values of every primitive, coded by code in
// either direction.
type vals struct {
	u     [5]uint64
	v     [4]int64
	i     [2]int
	fixed uint64
	f64   [5]float64
	f32   [2]float32
	b     [2]bool
	bytes [2][]byte
	str   [2]string
	n     int
	list  []bool
}

func (v *vals) code(c *Coder) {
	for i := range v.u {
		Uvarint(c, &v.u[i])
	}
	for i := range v.v {
		Varint(c, &v.v[i])
	}
	for i := range v.i {
		c.Int(&v.i[i])
	}
	c.Uint64(&v.fixed)
	for i := range v.f64 {
		c.Float64(&v.f64[i])
	}
	for i := range v.f32 {
		c.Float32(&v.f32[i])
	}
	for i := range v.b {
		c.Bool(&v.b[i])
	}
	for i := range v.bytes {
		c.Bytes(&v.bytes[i])
	}
	for i := range v.str {
		c.String(&v.str[i])
	}
	c.Len(&v.n, 10)
	Slice(c, &v.list, 10, (*Coder).Bool)
}

// sample returns vals at the edges of every primitive's range.
func sample() vals {
	negZero := math.Copysign(0, -1)
	return vals{
		u:     [5]uint64{0, 1, 127, 128, math.MaxUint64},
		v:     [4]int64{0, -1, math.MinInt64, math.MaxInt64},
		i:     [2]int{math.MaxInt64, -42},
		fixed: math.MaxUint64,
		f64:   [5]float64{math.NaN(), negZero, math.Inf(-1), math.MaxFloat64, 1.5},
		f32:   [2]float32{float32(math.NaN()), float32(negZero)},
		b:     [2]bool{true, false},
		bytes: [2][]byte{nil, {0, 0xFF, 7}},
		str:   [2]string{"", "valve"},
		n:     3, // a count for Len: the list after it takes 3 bytes
		list:  []bool{true, true},
	}
}

// bits replaces v's floats by their IEEE 754 bits, so reflect.DeepEqual
// compares them exactly (NaN included).
func bits(v vals) (vals, [7]uint64) {
	var b [7]uint64
	for i, f := range v.f64 {
		b[i] = math.Float64bits(f)
	}
	b[5], b[6] = uint64(math.Float32bits(v.f32[0])), uint64(math.Float32bits(v.f32[1]))
	v.f64, v.f32 = [5]float64{}, [2]float32{}
	return v, b
}

func TestGetterRoundTrip(t *testing.T) {
	want := sample()
	e := NewEncoder()
	e.Begin("vals")
	want.code(&e.coder)
	e.End()
	e.Begin("empty")
	e.End()
	s := e.Bytes()

	d := at(t, s, "vals")
	var got vals
	got.code(&d.coder)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	g, gb := bits(got)
	w, wb := bits(want)
	if !reflect.DeepEqual(g, w) || gb != wb {
		t.Errorf("round trip = %+v %x, want %+v %x", g, gb, w, wb)
	}
	if len(d.body) != 0 {
		t.Errorf("%d bytes left after reading every value", len(d.body))
	}
	if err := d.Need("empty"); err != nil || len(d.body) != 0 {
		t.Errorf("empty section: err %v, %d bytes", err, len(d.body))
	}
}

// TestErrorsSticky: the first corruption poisons every later read, which
// stores the zero value, and Err keeps reporting that first failure.
func TestErrorsSticky(t *testing.T) {
	d := at(t, stream("s", "\x80"), "s") // a uvarint missing its last byte
	c := &d.coder
	u := uint64(5)
	if Uvarint(c, &u); u != 0 || d.Err() == nil {
		t.Fatalf("truncated Uvarint = %d, err %v", u, d.Err())
	}
	first := d.Err()
	if !strings.Contains(first.Error(), `section "s"`) {
		t.Errorf("error %q does not name its section", first)
	}
	v := sample()
	v.code(c)
	if len(v.bytes[1]) != 0 || len(v.list) != 0 {
		t.Errorf("a read after the first error kept %v and %v", v.bytes[1], v.list)
	}
	v.bytes, v.list = [2][]byte{}, nil
	if z, zb := bits(v); !reflect.DeepEqual(z, vals{}) || zb != [7]uint64{} {
		t.Errorf("a read after the first error stored non-zero values %+v %x", z, zb)
	}
	if d.Err() != first {
		t.Errorf("Err changed from %v to %v", first, d.Err())
	}

	for name, read := range map[string]func(c *Coder){
		"uint64":  func(c *Coder) { var v uint64; c.Uint64(&v) },
		"float32": func(c *Coder) { var v float32; c.Float32(&v) },
		"bool":    func(c *Coder) { var v bool; c.Bool(&v) },
		"bytes":   func(c *Coder) { var v []byte; c.Bytes(&v) },
		"varint":  func(c *Coder) { var v int64; Varint(c, &v) },
	} {
		d := at(t, stream("s", ""), "s")
		if read(&d.coder); d.Err() == nil {
			t.Errorf("%s from an empty section did not fail", name)
		}
	}
	if d := at(t, stream("s", "\x02"), "s"); func() bool { var b bool; d.coder.Bool(&b); return b }() || d.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	if d := at(t, stream("s", "\x05ab"), "s"); func() []byte { var b []byte; d.coder.Bytes(&b); return b }() != nil || d.Err() == nil {
		t.Error("byte string longer than its section accepted")
	}
}

// TestLenBounds: a count must be non-negative, within the caller's limit
// and no larger than the bytes left in the section.
func TestLenBounds(t *testing.T) {
	count := func(n int64, tail string) []byte {
		return stream("s", string(binary.AppendVarint(nil, n))+tail)
	}
	for _, c := range []struct {
		name  string
		s     []byte
		limit int
		want  int
		ok    bool
	}{
		{"zero", count(0, ""), 8, 0, true},
		{"exactly the remainder", count(3, "abc"), 8, 3, true},
		{"at the limit", count(3, "abcdef"), 3, 3, true},
		{"negative", count(-1, "abc"), 8, 0, false},
		{"over the limit", count(4, "abcdef"), 3, 0, false},
		{"over the remainder", count(4, "abc"), 8, 0, false},
		{"huge", count(1<<24, "abc"), 1 << 24, 0, false},
	} {
		d := at(t, c.s, "s")
		var n int
		if d.coder.Len(&n, c.limit); n != c.want || (d.Err() == nil) != c.ok {
			t.Errorf("%s: Len = %d, err %v; want %d, ok=%v", c.name, n, d.Err(), c.want, c.ok)
		}
		d = at(t, c.s, "s")
		var sl []int64
		Slice(&d.coder, &sl, c.limit, func(*Coder, *int64) {})
		if n := len(sl); n != c.want || (d.Err() == nil) != c.ok || cap(sl) < n || cap(sl) > 2*n+4 {
			t.Errorf("%s: Slice = cap %d count %d, err %v", c.name, cap(sl), n, d.Err())
		}
	}
}

func TestSectionDirectory(t *testing.T) {
	d, err := NewDecoder(stream("a", "1", "b", ""))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has("a") || !d.Has("b") || d.Has("c") || d.Has("") {
		t.Error("Has does not match the directory")
	}
	if err := d.Need("c"); err == nil || !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("Need(missing) = %v", err)
	}

	full := stream("a", "1", "b", "22")
	for _, c := range []struct {
		name string
		s    []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XCKP"), full[4:]...)},
		{"bad version", append(append([]byte{}, full[:4]...), append([]byte{Version + 1}, full[5:]...)...)},
		{"duplicate", stream("a", "1", "a", "2")},
		{"oversized name", stream(strings.Repeat("n", maxNameBytes+1), "")},
		{"too many sections", stream(manySections(maxSections + 1)...)},
	} {
		if _, err := NewDecoder(c.s); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewDecoder(stream(manySections(maxSections)...)); err != nil {
		t.Errorf("%d sections: %v", maxSections, err)
	}
	for i := 0; i < len(full); i++ {
		if _, err := NewDecoder(full[:i]); err == nil {
			t.Errorf("stream truncated to %d of %d bytes accepted", i, len(full))
		}
	}
}

func manySections(n int) []string {
	var s []string
	for i := 0; i < n; i++ {
		s = append(s, string(binary.AppendUvarint([]byte("s"), uint64(i))), "")
	}
	return s
}

func encodeSample(e *Encoder, n int) {
	c := &e.coder
	e.Begin("meta")
	v, pi := int64(n), math.Pi
	Varint(c, &v)
	c.Float64(&pi)
	e.End()
	e.Begin("list")
	c.Int(&n)
	for i := 0; i < n; i++ {
		u, name, b := uint64(i)*977, "actuator", []byte{byte(i), 1, 2, 3}
		Uvarint(c, &u)
		c.String(&name)
		c.Bytes(&b)
	}
	e.End()
}

// TestResetReencode: a reset encoder produces exactly the bytes of a
// fresh one, whatever it encoded before.
func TestResetReencode(t *testing.T) {
	fresh := NewEncoder()
	encodeSample(fresh, 50)
	want := bytes.Clone(fresh.Bytes())

	e := NewEncoder()
	encodeSample(e, 900) // a larger stream first: the reset must truncate
	e.Bytes()
	e.Reset()
	encodeSample(e, 50)
	if got := e.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("reset encoder wrote %d bytes differing from a fresh encoder's %d", len(got), len(want))
	}
	e.Begin("open")
	e.Reset() // a reset also closes an open section
	encodeSample(e, 50)
	if got := e.Bytes(); !bytes.Equal(got, want) {
		t.Fatal("reset with a section open does not restart cleanly")
	}
}

// TestWarmEncoderAllocs: once its buffers have grown, an encoder encodes
// the next stream without allocating.
func TestWarmEncoderAllocs(t *testing.T) {
	e := NewEncoder()
	encodeSample(e, 500)
	e.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		e.Reset()
		encodeSample(e, 500)
		e.Bytes()
	})
	if allocs != 0 {
		t.Errorf("warm encoder allocates %.1f objects per stream, want 0", allocs)
	}
}

// FuzzDecoder drives the framing, every getter and the decoding side of
// every Coder helper with arbitrary bytes: decoding must never panic, a
// counted read must never admit more elements than bytes left, and a key
// or enum is never admitted out of its range. Input that is not a valid stream is also
// decoded as the body of a one-section stream, so the getters see
// arbitrary bodies, not only those the framing lets through.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	encodeSample(e, 3)
	f.Add(bytes.Clone(e.Bytes()))
	f.Add([]byte{})
	f.Add(stream("s", "\x80"))
	f.Add(stream("a", "1", "a", "2"))
	f.Add([]byte{0x03, 0x80, 0x80, 0x80, 0x10, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			d, err = NewDecoder(stream("s", string(data)))
			if err != nil {
				t.Fatalf("one-section framing rejected: %v", err)
			}
		}
		c := &d.coder
		for _, sec := range d.sections {
			if err := d.Need(string(sec.name)); err != nil {
				t.Fatalf("directory entry %q not found by name: %v", sec.name, err)
			}
			// The body drives its own reads: each step reads an opcode,
			// then one value; every read consumes a byte or fails.
			for d.Err() == nil && len(d.body) > 0 {
				left := len(d.body)
				var op uint64
				switch Uvarint(c, &op); op % 17 {
				case 0:
					var v int64
					Varint(c, &v)
				case 1:
					var v int
					c.Int(&v)
				case 2:
					var v uint64
					c.Uint64(&v)
				case 3:
					var v float64
					c.Float64(&v)
				case 4:
					var v float32
					c.Float32(&v)
				case 5:
					var v bool
					c.Bool(&v)
				case 6:
					var v []byte
					c.Bytes(&v)
				case 7:
					var v string
					c.String(&v)
				case 8:
					before, n := len(d.body), 0
					if c.Len(&n, 1<<24); n > before {
						t.Fatalf("Len admitted %d elements with %d bytes left", n, before)
					}
				case 9:
					before := len(d.body)
					var sl []uint64
					if Slice(c, &sl, 1<<24, (*Coder).Uint64); len(sl) > before || cap(sl) < len(sl) {
						t.Fatalf("Slice: %d elements, cap %d, %d bytes left", len(sl), cap(sl), before)
					}
				case 10:
					var v uint64
					Uvarint(c, &v)
				case 11:
					c.Count(3, "things")
				case 12:
					var k uint16
					if Index(c, &k, 1000, "key"); d.Err() == nil && k >= 1000 {
						t.Fatalf("Index admitted key %d of 1000", k)
					}
				case 13:
					var u uint8
					var v int
					if Enum(c, &u, 9); d.Err() == nil && u >= 9 {
						t.Fatalf("Enum admitted %d of 9", u)
					}
					if Enum(c, &v, 5); d.Err() == nil && (v < 0 || v >= 5) {
						t.Fatalf("Enum admitted %d of 5", v)
					}
				case 14:
					before := len(d.body)
					var l seglog.Log[int64]
					if Log(c, &l, 1<<24, Varint[int64]); l.Len() > before {
						t.Fatalf("Log admitted %d elements with %d bytes left", l.Len(), before)
					}
				case 16:
					before := len(d.body)
					calls := 0
					Sparse(c, 1<<20, nil, func(c *Coder, i int) {
						var k uint16
						Index(c, &k, 1000, "slot")
						calls++
					})
					if calls > before {
						t.Fatalf("Sparse admitted %d entries with %d bytes left", calls, before)
					}
				case 15:
					before := len(d.body)
					m := map[string]bool{"stale": true}
					SortedMap(c, &m, 1<<24, (*Coder).String, func(c *Coder, _ string, v *bool) { c.Bool(v) })
					if len(m) > before {
						t.Fatalf("SortedMap admitted %d entries with %d bytes left", len(m), before)
					}
				}
				if d.Err() == nil && len(d.body) >= left {
					t.Fatal("a successful read consumed nothing")
				}
			}
		}
	})
}

// coded runs code on an encoding coder, then returns a decoding coder at
// the section it wrote, and the section's bytes.
func coded(t *testing.T, code func(c *Coder)) (*Coder, []byte) {
	t.Helper()
	e := NewEncoder()
	e.Begin("s")
	code(&e.coder)
	body := bytes.Clone(e.buf)
	e.End()
	return &at(t, bytes.Clone(e.Bytes()), "s").coder, body
}

type (
	kind  uint8
	class int
)

// TestEnumRoundTrip: an enum round-trips as a uvarint (unsigned type) or
// a zigzag varint (signed type), and a value at or beyond its bound, or
// negative, is refused and stored as zero.
func TestEnumRoundTrip(t *testing.T) {
	k, cl := kind(3), class(5)
	c, body := coded(t, func(c *Coder) { Enum(c, &k, 4); Enum(c, &cl, 6) })
	if !bytes.Equal(body, []byte{3, 10}) {
		t.Errorf("Enum wrote %v, want [3 10]", body)
	}
	var k2 kind
	var cl2 class
	Enum(c, &k2, 4)
	if Enum(c, &cl2, 6); k2 != k || cl2 != cl || c.Err() != nil {
		t.Errorf("Enum decoded %d, %d (err %v), want %d, %d", k2, cl2, c.Err(), k, cl)
	}
	for _, v := range []class{5, -1} {
		c, _ := coded(t, func(c *Coder) { Enum(c, &v, 6) })
		got := class(2)
		if Enum(c, &got, 5); got != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), `section "s": ckpt.class`) {
			t.Errorf("Enum(%d) into [0, 5) = %d, err %v", v, got, c.Err())
		}
	}
}

// TestIndexRoundTrip: a key round-trips below its bound; at or beyond
// it — including values a narrowing cast would wrap into range — it is
// refused with an error naming the key, and stored as zero.
func TestIndexRoundTrip(t *testing.T) {
	k := uint16(7)
	c, _ := coded(t, func(c *Coder) { Index(c, &k, 10, "key") })
	var got uint16
	if Index(c, &got, 10, "key"); got != 7 || c.Err() != nil {
		t.Errorf("Index decoded %d, err %v", got, c.Err())
	}
	for _, v := range []int{10, 65537, -1, 1 << 40} {
		c, _ := coded(t, func(c *Coder) { Index(c, &v, 1<<50, "key") })
		got := uint16(3)
		if Index(c, &got, 10, "channel"); got != 0 || c.Err() == nil ||
			!strings.Contains(c.Err().Error(), fmt.Sprintf("channel %d out of range", v)) {
			t.Errorf("Index(%d) into [0, 10) = %d, err %v", v, got, c.Err())
		}
	}
}

// TestCountRoundTrip: a structural count round-trips when the build
// agrees, and a mismatch names what is counted.
func TestCountRoundTrip(t *testing.T) {
	c, _ := coded(t, func(c *Coder) { c.Count(3, "things"); c.Count(3, "things") })
	if c.Count(3, "things"); c.Err() != nil {
		t.Fatal(c.Err())
	}
	c.Count(4, "things")
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "checkpoint has 3 things, build has 4") {
		t.Errorf("Count mismatch: %v", err)
	}
}

// TestVarintNarrowing: the generic integer primitives round-trip every
// width and refuse a value their type cannot hold.
func TestVarintNarrowing(t *testing.T) {
	big, neg, u := uint64(65537), int64(-129), uint32(1<<31)
	c, _ := coded(t, func(c *Coder) { Uvarint(c, &u); Uvarint(c, &big); Varint(c, &neg) })
	var u2 uint32
	var small uint16
	var tiny int8
	if Uvarint(c, &u2); u2 != u || c.Err() != nil {
		t.Errorf("Uvarint = %d, err %v", u2, c.Err())
	}
	if Uvarint(c, &small); small != 0 || c.Err() == nil {
		t.Errorf("uint16 took 65537 as %d, err %v", small, c.Err())
	}
	c, _ = coded(t, func(c *Coder) { Varint(c, &neg) })
	if Varint(c, &tiny); tiny != 0 || c.Err() == nil {
		t.Errorf("int8 took -129 as %d, err %v", tiny, c.Err())
	}
}

// TestSliceRoundTrip: a slice round-trips element by element; decoding
// clears the destination and refills its storage in place when it is
// large enough, and reserves once, with headroom, when it is not.
func TestSliceRoundTrip(t *testing.T) {
	src := []string{"a", "bc", ""}
	c, _ := coded(t, func(c *Coder) { Slice(c, &src, 10, (*Coder).String) })
	dst := make([]string, 5, 8)
	dst[4] = "stale"
	base := &dst[:1][0]
	if Slice(c, &dst, 10, (*Coder).String); !slices.Equal(dst, src) || &dst[0] != base || c.Err() != nil {
		t.Errorf("Slice into a roomy slice = %q (reused %v), err %v", dst, &dst[0] == base, c.Err())
	}
	var fresh []string
	src = append(append(append(src, src...), src...), src...)
	c, _ = coded(t, func(c *Coder) { Slice(c, &src, 20, (*Coder).String) })
	if Slice(c, &fresh, 20, (*Coder).String); !slices.Equal(fresh, src) || cap(fresh) != 12+12/4 {
		t.Errorf("Slice into nil = %q cap %d, want %q cap %d", fresh, cap(fresh), src, 12+12/4)
	}
}

// TestLogRoundTrip: a segmented log round-trips in order, and decoding
// replaces whatever the destination held.
func TestLogRoundTrip(t *testing.T) {
	var src, dst seglog.Log[int64]
	for i := int64(0); i < 300; i++ {
		src.Append(i * i)
		dst.Append(-i)
	}
	c, _ := coded(t, func(c *Coder) { Log(c, &src, 1000, Varint[int64]) })
	elems := func(l *seglog.Log[int64]) (out []int64) {
		for k := 0; k < l.NumSegs(); k++ {
			out = append(out, l.Seg(k)...)
		}
		return out
	}
	if Log(c, &dst, 1000, Varint[int64]); c.Err() != nil || !slices.Equal(elems(&dst), elems(&src)) {
		t.Errorf("Log round trip: %d elements, err %v", dst.Len(), c.Err())
	}
}

// TestLogDecodeStaysBounded: decoding a growing log again and again into
// the same Log, as a run restored in place every chunk does, draws on the
// segments the previous decode retired. The log's storage, live and
// retired segments together, stays within one segment (at most 256
// elements) of the longest log decoded.
func TestLogDecodeStaysBounded(t *testing.T) {
	var src, dst seglog.Log[int64]
	for k := 0; k < 40; k++ {
		for i := 0; i < 97; i++ {
			src.Append(int64(k*97 + i))
		}
		c, _ := coded(t, func(c *Coder) { Log(c, &src, 1<<16, Varint[int64]) })
		if Log(c, &dst, 1<<16, Varint[int64]); c.Err() != nil || dst.Len() != src.Len() {
			t.Fatalf("decode %d: %d elements, err %v", k, dst.Len(), c.Err())
		}
		if got := logCap(&dst); got > src.Len()+256 {
			t.Fatalf("decode %d: %d elements held in segments of %d in all, want at most %d",
				k, dst.Len(), got, src.Len()+256)
		}
	}
}

// logCap is the total capacity of a log's live and retired segments,
// read through reflection: seglog does not export them.
func logCap(l *seglog.Log[int64]) int {
	v, total := reflect.ValueOf(l).Elem(), 0
	for _, name := range []string{"segs", "free"} {
		segs := v.FieldByName(name)
		for i := 0; i < segs.Len(); i++ {
			total += segs.Index(i).Cap()
		}
	}
	return total
}

// TestSortedMapRoundTrip: a map encodes in ascending key order whatever
// its insertion history, and decoding replaces the destination's entries
// (allocating a nil destination).
func TestSortedMapRoundTrip(t *testing.T) {
	a := map[string]int{"b": 2, "a": 1, "c": 3}
	b := map[string]int{"c": 3, "a": 1, "b": 2}
	code := func(m map[string]int) func(*Coder) {
		return func(c *Coder) {
			SortedMap(c, &m, 10, (*Coder).String, func(c *Coder, _ string, v *int) { c.Int(v) })
		}
	}
	ca, bodyA := coded(t, code(a))
	if _, bodyB := coded(t, code(b)); !bytes.Equal(bodyA, bodyB) {
		t.Error("equal maps encode differently")
	}
	if !bytes.Equal(bodyA, []byte{6, 1, 'a', 2, 1, 'b', 4, 1, 'c', 6}) {
		t.Errorf("SortedMap wrote %v, want its keys ascending", bodyA)
	}
	dst := map[string]int{"stale": 9}
	if code(dst)(ca); ca.Err() != nil || len(dst) != 3 || dst["a"] != 1 || dst["c"] != 3 {
		t.Errorf("SortedMap into a used map = %v, err %v", dst, ca.Err())
	}
	var empty map[string]int
	cb, _ := coded(t, code(a))
	SortedMap(cb, &empty, 10, (*Coder).String, func(c *Coder, _ string, v *int) { c.Int(v) })
	if len(empty) != 3 || cb.Err() != nil {
		t.Errorf("SortedMap into nil = %v, err %v", empty, cb.Err())
	}
}

// zigzag returns vs as consecutive zigzag varints.
func zigzag(vs ...int64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// TestSparseRoundTrip: the set slots of a table round-trip in slot order
// behind their count, decoding fills the slots the decoded keys name, and
// a count beyond the table's size is refused.
func TestSparseRoundTrip(t *testing.T) {
	src := []int64{0, 7, 0, 0, -3, 9}
	code := func(tab []int64) func(*Coder) {
		return func(c *Coder) {
			Sparse(c, len(tab), func(i int) bool { return tab[i] != 0 }, func(c *Coder, i int) {
				Index(c, &i, len(tab), "slot")
				Varint(c, &tab[i])
			})
		}
	}
	c, body := coded(t, code(src))
	if want := zigzag(3, 1, 7, 4, -3, 5, 9); !bytes.Equal(body, want) {
		t.Errorf("Sparse wrote %v, want %v", body, want)
	}
	dst := make([]int64, len(src))
	if code(dst)(c); c.Err() != nil || !slices.Equal(dst, src) {
		t.Errorf("Sparse round trip = %v, err %v", dst, c.Err())
	}
	over := &at(t, stream("s", string(zigzag(4, 0, 1, 1, 1, 2, 1, 0, 1))), "s").coder
	if code(make([]int64, 3))(over); over.Err() == nil {
		t.Error("Sparse admitted 4 entries for a 3-slot table")
	}
}
