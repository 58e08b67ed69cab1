package trace

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzBinaryReader throws arbitrary bytes at the binary decoder and holds
// it to its contract: never panic, never loop, never surface a decode
// problem as a transport error — corrupt records are counted and reported
// with byte offsets, and a valid prefix still decodes. The corpus is
// seeded with the golden stream plus truncated and bit-flipped variants
// so the fuzzer starts at the interesting boundaries instead of the empty
// string.
func FuzzBinaryReader(f *testing.F) {
	golden := encodeBinaryFuzz(f)
	f.Add(golden)
	f.Add([]byte{})
	f.Add(AppendHeader(nil))
	f.Add(golden[:len(golden)-1])
	f.Add(golden[:binaryHeaderLen+1])
	f.Add(golden[:len(golden)/2])
	for _, i := range []int{0, 4, 5, 6, len(golden) / 2, len(golden) - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(`{"t_us":1,"kind":"frame","vehicle":3}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := newBinaryReader(bufio.NewReader(bytes.NewReader(data)))
		events := 0
		err := rd.Each(func(*Event) {
			if events++; events > len(data) {
				t.Fatalf("decoded %d events from %d bytes", events, len(data))
			}
		})
		// Only stream-level faults may surface: bad magic or an
		// unsupported version — and only on streams that carry them.
		if err != nil && len(data) >= len(binaryMagic) && HasBinaryHeader(data) &&
			!strings.Contains(err.Error(), "version") {
			t.Fatalf("well-headed stream failed fatally: %v", err)
		}
		for _, cerr := range rd.CorruptErrors() {
			if !strings.Contains(cerr.Error(), "offset") {
				t.Fatalf("corruption reported without an offset: %v", cerr)
			}
		}
		if rd.Corrupt() > 0 && len(rd.CorruptErrors()) == 0 {
			t.Fatalf("%d corrupt records with no retained detail", rd.Corrupt())
		}

		// The sniffing path must make the same no-panic guarantee whichever
		// decoder the bytes select.
		srd, _ := OpenReader(bytes.NewReader(data))
		if err := srd.ReadAll(func(Event) {}); err != nil && err != io.EOF {
			if len(data) >= len(binaryMagic) && HasBinaryHeader(data) &&
				!strings.Contains(err.Error(), "version") {
				t.Fatalf("OpenReader on well-headed stream: %v", err)
			}
		}
	})
}

func encodeBinaryFuzz(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	events := goldenEvents()
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
