package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
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

func TestGetterRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	e := NewEncoder()
	e.Begin("vals")
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		e.Uvarint(v)
	}
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		e.Varint(v)
	}
	e.Int(math.MaxInt64)
	e.Int(-42)
	e.Uint64(math.MaxUint64)
	for _, v := range []float64{math.NaN(), negZero, math.Inf(-1), math.MaxFloat64, 1.5} {
		e.Float64(v)
	}
	e.Float32(float32(math.NaN()))
	e.Float32(float32(negZero))
	e.Bool(true)
	e.Bool(false)
	e.Bytes8(nil)
	e.Bytes8([]byte{0, 0xFF, 7})
	e.String("")
	e.String("valve")
	e.Int(3) // a count for Len
	e.Int(2) // a count for MakeSlice
	e.Bool(true)
	e.Bool(true)
	e.End()
	e.Begin("empty")
	e.End()
	s := e.Bytes()

	d := at(t, s, "vals")
	for _, want := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := d.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	if got := d.Int(); got != math.MaxInt64 {
		t.Errorf("Int = %d, want MaxInt64", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d, want MaxUint64", got)
	}
	for _, want := range []float64{math.NaN(), negZero, math.Inf(-1), math.MaxFloat64, 1.5} {
		if got := d.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float64 bits %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, want := range []float32{float32(math.NaN()), float32(negZero)} {
		if got := d.Float32(); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("Float32 bits %#x, want %#x", math.Float32bits(got), math.Float32bits(want))
		}
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if b := d.Bytes8(); len(b) != 0 {
		t.Errorf("Bytes8(nil) = %v", b)
	}
	if b := d.Bytes8(); !bytes.Equal(b, []byte{0, 0xFF, 7}) {
		t.Errorf("Bytes8 = %v", b)
	}
	if s := d.String(); s != "" {
		t.Errorf("String = %q, want empty", s)
	}
	if s := d.String(); s != "valve" {
		t.Errorf("String = %q, want valve", s)
	}
	if n := d.Len(10); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
	sl, n := MakeSlice[bool](d, 10)
	if n != 2 || len(sl) != 0 || cap(sl) < 2 {
		t.Errorf("MakeSlice = len %d cap %d count %d, want an empty slice with room for 2", len(sl), cap(sl), n)
	}
	d.Bool()
	d.Bool()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left after reading every value", d.Remaining())
	}
	if err := d.Need("empty"); err != nil || d.Remaining() != 0 {
		t.Errorf("empty section: err %v, %d bytes", err, d.Remaining())
	}
}

// TestErrorsSticky: the first corruption poisons every later read, which
// returns the zero value, and Err keeps reporting that first failure.
func TestErrorsSticky(t *testing.T) {
	d := at(t, stream("s", "\x80"), "s") // a uvarint missing its last byte
	if v := d.Uvarint(); v != 0 || d.Err() == nil {
		t.Fatalf("truncated Uvarint = %d, err %v", v, d.Err())
	}
	first := d.Err()
	if !strings.Contains(first.Error(), `section "s"`) {
		t.Errorf("error %q does not name its section", first)
	}
	if d.Varint() != 0 || d.Int() != 0 || d.Uint64() != 0 || d.Float64() != 0 ||
		d.Float32() != 0 || d.Bool() || d.Bytes8() != nil || d.String() != "" || d.Len(1) != 0 {
		t.Error("a read after the first error returned a non-zero value")
	}
	if d.Err() != first {
		t.Errorf("Err changed from %v to %v", first, d.Err())
	}

	for name, read := range map[string]func(d *Decoder){
		"uint64":  func(d *Decoder) { d.Uint64() },
		"float32": func(d *Decoder) { d.Float32() },
		"bool":    func(d *Decoder) { d.Bool() },
		"bytes8":  func(d *Decoder) { d.Bytes8() },
		"varint":  func(d *Decoder) { d.Varint() },
	} {
		d := at(t, stream("s", ""), "s")
		if read(d); d.Err() == nil {
			t.Errorf("%s from an empty section did not fail", name)
		}
	}
	if d := at(t, stream("s", "\x02"), "s"); d.Bool() || d.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	if d := at(t, stream("s", "\x05ab"), "s"); d.Bytes8() != nil || d.Err() == nil {
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
		n := d.Len(c.limit)
		if n != c.want || (d.Err() == nil) != c.ok {
			t.Errorf("%s: Len = %d, err %v; want %d, ok=%v", c.name, n, d.Err(), c.want, c.ok)
		}
		d = at(t, c.s, "s")
		sl, n := MakeSlice[int64](d, c.limit)
		if n != c.want || (d.Err() == nil) != c.ok || cap(sl) < n || cap(sl) > 2*n+4 {
			t.Errorf("%s: MakeSlice = cap %d count %d, err %v", c.name, cap(sl), n, d.Err())
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
	if d.Section("c") {
		t.Error("Section found a missing section")
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
	e.Begin("meta")
	e.Varint(int64(n))
	e.Float64(math.Pi)
	e.End()
	e.Begin("list")
	e.Int(n)
	for i := 0; i < n; i++ {
		e.Uvarint(uint64(i) * 977)
		e.String("actuator")
		e.Bytes8([]byte{byte(i), 1, 2, 3})
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

// FuzzDecoder drives the framing and every getter with arbitrary bytes:
// decoding must never panic, and a counted read must never admit more
// elements than bytes left. Input that is not a valid stream is also
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
		for _, sec := range d.sections {
			if !d.Section(string(sec.name)) {
				t.Fatalf("directory entry %q not found by name", sec.name)
			}
			// The body drives its own reads: each step reads an opcode,
			// then one value; every read consumes a byte or fails.
			for d.Err() == nil && d.Remaining() > 0 {
				left := d.Remaining()
				switch d.Uvarint() % 11 {
				case 0:
					d.Varint()
				case 1:
					d.Int()
				case 2:
					d.Uint64()
				case 3:
					d.Float64()
				case 4:
					d.Float32()
				case 5:
					d.Bool()
				case 6:
					d.Bytes8()
				case 7:
					_ = d.String()
				case 8:
					before := d.Remaining()
					if n := d.Len(1 << 24); n > before {
						t.Fatalf("Len admitted %d elements with %d bytes left", n, before)
					}
				case 9:
					before := d.Remaining()
					if sl, n := MakeSlice[uint64](d, 1<<24); n > before || cap(sl) < n {
						t.Fatalf("MakeSlice: %d elements, cap %d, %d bytes left", n, cap(sl), before)
					}
				case 10:
					d.Uvarint()
				}
				if d.Err() == nil && d.Remaining() >= left {
					t.Fatal("a successful read consumed nothing")
				}
			}
		}
	})
}
