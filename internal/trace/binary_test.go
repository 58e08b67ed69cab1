package trace

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_v1.bin from goldenEvents")

// goldenEvents is one event of every kind, exercising every field of the
// v1 layout: present and absent optional values, exact-binary-fraction
// and repeating-fraction floats, negative timestamps, empty strings.
func goldenEvents() []Event {
	sender, slot, observer := 2, 5, 1
	round := int64(1234)
	trust := 0.8125
	return []Event{
		{T: 0, Kind: "vehicle", Vehicle: 7, Detail: "faulty"},
		{T: 1, Kind: "truth", Vehicle: 7, Subject: "job[das/job@2]", Class: "job-inherent-software", Detail: "injected"},
		{T: 250, Kind: "frame", Vehicle: 7, Sender: &sender, Slot: &slot, Round: &round, Status: "omission"},
		{T: 500, Kind: "frame", Vehicle: 7, Status: "crash"},
		{T: 750, Kind: "symptom", Vehicle: 7, Symptom: "omission", Subject: "component[2]",
			Observer: &observer, Count: 3, Dev: 0.1 + 0.2}, // 0.30000000000000004: must round-trip exactly
		{T: 1000, Kind: "trust", Vehicle: 7, Subject: "component[2]", Trust: &trust},
		{T: 1250, Kind: "trust", Vehicle: 7, Subject: "component[3]"},
		{T: 1500, Kind: "verdict", Vehicle: 7, Subject: "component[2]", Class: "component-borderline",
			Pattern: "connector-intermittent", Action: "inspect-connector", Conf: 0.875},
		{T: 1750, Kind: "injection", Vehicle: 7, Class: "component-external", Subject: "component[0]", Detail: "emi burst"},
		{T: 2000, Kind: "advice", Vehicle: 7, Source: "decos", Subject: "job[das/job@2]",
			Class: "job-inherent-software", Action: "update-software"},
		{T: -1, Kind: "vehicle"},
	}
}

func encodeBinary(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			t.Fatalf("encode event %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAndCompare decodes blob twice, through ReadAll and through Each,
// and compares each event against want as it arrives — pointer fields of
// a BinaryReader event are only valid until the next record, so
// comparison must be in-stream. It returns the ReadAll reader and its
// sniffed format.
func decodeAndCompare(t *testing.T, blob []byte, want []Event) (EventReader, Format) {
	t.Helper()
	var first EventReader
	var format Format
	for _, each := range []bool{false, true} {
		rd, f := OpenReader(bytes.NewReader(blob))
		if first == nil {
			first, format = rd, f
		}
		i := 0
		check := func(e *Event) {
			if i >= len(want) {
				t.Fatalf("each=%v: decoded %d+ events, want %d", each, i+1, len(want))
			}
			if !reflect.DeepEqual(*e, want[i]) {
				t.Errorf("each=%v: event %d:\ngot  %+v\nwant %+v", each, i, *e, want[i])
			}
			i++
		}
		var err error
		if each {
			err = rd.Each(check)
		} else {
			err = rd.ReadAll(func(e Event) { check(&e) })
		}
		if err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("each=%v: decoded %d events, want %d", each, i, len(want))
		}
		if rd.Corrupt() != 0 {
			t.Fatalf("clean stream reported %d corrupt records: %v", rd.Corrupt(), rd.CorruptErrors())
		}
	}
	return first, format
}

func TestBinaryRoundTrip(t *testing.T) {
	events := goldenEvents()
	blob := encodeBinary(t, events)
	rd, f := decodeAndCompare(t, blob, events)
	if f != FormatBinary {
		t.Fatalf("sniffed %v, want binary", f)
	}
	if n := rd.(*BinaryReader).records; n != len(events) {
		t.Fatalf("records = %d, want %d", n, len(events))
	}
}

// TestGoldenFixture pins the v1 wire layout: the committed fixture must
// decode field-for-field to goldenEvents, and re-encoding goldenEvents
// must reproduce the committed bytes exactly. An accidental layout change
// fails both ways.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.bin")
	want := encodeBinary(t, goldenEvents())
	if *updateGolden {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -run TestGoldenFixture -update` after an intentional format change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed fixture (%d bytes) != current encoder output (%d bytes): the v1 wire layout changed — bump BinaryVersion instead", len(got), len(want))
	}
	if _, f := decodeAndCompare(t, got, goldenEvents()); f != FormatBinary {
		t.Fatalf("fixture sniffs as %v", f)
	}
}

func TestOpenReaderSniffs(t *testing.T) {
	events := goldenEvents()
	var nd bytes.Buffer
	s := NewNDJSONSink(&nd)
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, f := decodeAndCompare(t, nd.Bytes(), events); f != FormatNDJSON {
		t.Fatalf("NDJSON sniffed as %v", f)
	}

	if _, f := OpenReader(strings.NewReader("")); f != FormatNDJSON {
		t.Fatalf("empty stream sniffed as %v, want ndjson", f)
	}
	rd, f := OpenReader(bytes.NewReader(AppendHeader(nil)))
	if f != FormatBinary {
		t.Fatalf("header-only stream sniffed as %v, want binary", f)
	}
	if err := rd.Each(func(*Event) { t.Fatal("header-only stream decoded an event") }); err != nil {
		t.Fatalf("header-only stream = %v, want the end of the stream", err)
	}
}

// TestBinarySinkEmptyClose: a sink closed without records still writes
// the header, so an event-free capture remains a sniffable binary stream.
func TestBinarySinkEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBinarySink(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if !HasBinaryHeader(buf.Bytes()) || buf.Len() != binaryHeaderLen {
		t.Fatalf("empty-stream close wrote % x", buf.Bytes())
	}
}

func TestBinarySinkUnknownKind(t *testing.T) {
	s := NewBinarySink(io.Discard)
	if err := s.Record(&Event{Kind: "wormhole"}); err == nil {
		t.Fatal("unknown kind encoded without error")
	}
	if err := s.Record(&Event{Kind: "frame", Status: "ok"}); err != nil {
		t.Fatalf("sink unusable after a rejected event: %v", err)
	}
}

// TestBinaryReaderSkipsCorruptRecord: a record whose payload fails to
// decode is skipped within its frame and the rest of the stream survives,
// with a record-numbered, offset-carrying error retained.
func TestBinaryReaderSkipsCorruptRecord(t *testing.T) {
	events := goldenEvents()[:3]
	blob := AppendHeader(nil)
	var err error
	blob, err = AppendEvent(blob, &events[0])
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, 2, 0xFF, 0xFF) // framed record with an unknown kind tag
	blob, err = AppendEvent(blob, &events[1])
	if err != nil {
		t.Fatal(err)
	}

	rd := newBinaryReader(bufio.NewReader(bytes.NewReader(blob)))
	var got []string
	if err := rd.ReadAll(func(e Event) { got = append(got, e.Kind) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != events[0].Kind || got[1] != events[1].Kind {
		t.Fatalf("decoded %v around the corrupt record", got)
	}
	if rd.Corrupt() != 1 || len(rd.CorruptErrors()) != 1 {
		t.Fatalf("corrupt = %d (%v), want 1", rd.Corrupt(), rd.CorruptErrors())
	}
	msg := rd.CorruptErrors()[0].Error()
	if !strings.Contains(msg, "record 2") || !strings.Contains(msg, "offset") {
		t.Fatalf("recovery error lacks record number / offset: %q", msg)
	}
}

// TestBinaryReaderTruncated: a stream cut mid-record decodes everything
// before the cut and reports the truncation with its offset — never a
// panic, never a silent clean EOF.
func TestBinaryReaderTruncated(t *testing.T) {
	events := goldenEvents()
	blob := encodeBinary(t, events)
	for _, cut := range []int{len(blob) - 1, len(blob) - 9, binaryHeaderLen + 1} {
		rd := newBinaryReader(bufio.NewReader(bytes.NewReader(blob[:cut])))
		n := 0
		if err := rd.ReadAll(func(Event) { n++ }); err != nil {
			t.Fatalf("cut=%d: transport error %v", cut, err)
		}
		if n >= len(events) {
			t.Fatalf("cut=%d: truncated stream yielded all %d events", cut, n)
		}
		if rd.Corrupt() != 1 {
			t.Fatalf("cut=%d: corrupt = %d, want 1", cut, rd.Corrupt())
		}
		if msg := rd.CorruptErrors()[0].Error(); !strings.Contains(msg, "offset") {
			t.Fatalf("cut=%d: truncation error lacks offset: %q", cut, msg)
		}
	}
}

// TestBinaryReaderFramingPoison: an oversized length prefix makes record
// boundaries unknowable; the stream is abandoned with one reported
// corruption instead of misparsing garbage.
func TestBinaryReaderFramingPoison(t *testing.T) {
	events := goldenEvents()[:2]
	blob := AppendHeader(nil)
	for i := range events {
		var err error
		if blob, err = AppendEvent(blob, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := append([]byte(nil), blob...)
	poisoned = append(poisoned, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // ~2^41-byte record
	poisoned = append(poisoned, blob[binaryHeaderLen:]...)          // unreachable tail

	rd := newBinaryReader(bufio.NewReader(bytes.NewReader(poisoned)))
	n := 0
	if err := rd.ReadAll(func(Event) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("decoded %d events before the poison, want %d", n, len(events))
	}
	if rd.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1 (the poisoned tail, reported once)", rd.Corrupt())
	}
	if err := rd.Each(func(*Event) { t.Fatal("poisoned reader decoded another event") }); err != nil {
		t.Fatalf("poisoned reader read again = %v, want the end of the stream", err)
	}
}

func TestBinaryReaderBadMagicAndVersion(t *testing.T) {
	rd := newBinaryReader(bufio.NewReader(strings.NewReader(`{"t_us":1,"kind":"frame"}` + "\n")))
	if err := rd.Each(func(*Event) {}); err == nil {
		t.Fatalf("NDJSON through the binary decoder = %v, want a bad-magic error", err)
	}

	skew := AppendHeader(nil)
	skew[len(skew)-1] = BinaryVersion + 1
	rd = newBinaryReader(bufio.NewReader(bytes.NewReader(skew)))
	err := rd.Each(func(*Event) {})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version stream = %v, want a version error", err)
	}
	if err2 := rd.Each(func(*Event) {}); err2 != err {
		t.Fatalf("fatal error is not sticky: %v then %v", err, err2)
	}
}

func TestBinaryReaderRecordBound(t *testing.T) {
	blob := encodeBinary(t, goldenEvents())
	rd := newBinaryReader(bufio.NewReader(bytes.NewReader(blob)))
	rd.SetMaxRecordBytes(4) // every record is larger than this
	if err := rd.ReadAll(func(Event) { t.Fatal("event decoded past the bound") }); err != nil {
		t.Fatal(err)
	}
	if rd.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1", rd.Corrupt())
	}
	if msg := rd.CorruptErrors()[0].Error(); !strings.Contains(msg, "bound") {
		t.Fatalf("bound violation error: %q", msg)
	}
}

// transcodeBytes re-encodes a complete trace blob into the given format;
// corrupt counts the undecodable and the unencodable records.
func transcodeBytes(blob []byte, to Format) (out []byte, events, corrupt int, err error) {
	rd, _ := OpenReader(bytes.NewReader(blob))
	var buf bytes.Buffer
	events, unencodable, err := Transcode(rd, NewSink(&buf, to))
	return buf.Bytes(), events, rd.Corrupt() + unencodable, err
}

// TestTranscodeBytes: NDJSON → binary → NDJSON through Transcode preserves
// every event value-for-value.
func TestTranscodeBytes(t *testing.T) {
	events := goldenEvents()
	var nd bytes.Buffer
	s := NewNDJSONSink(&nd)
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			t.Fatal(err)
		}
	}

	bin, n, corrupt, err := transcodeBytes(nd.Bytes(), FormatBinary)
	if err != nil || corrupt != 0 || n != len(events) {
		t.Fatalf("to binary: n=%d corrupt=%d err=%v", n, corrupt, err)
	}
	if _, f := decodeAndCompare(t, bin, events); f != FormatBinary {
		t.Fatalf("transcoded stream sniffs as %v", f)
	}

	back, n, corrupt, err := transcodeBytes(bin, FormatNDJSON)
	if err != nil || corrupt != 0 || n != len(events) {
		t.Fatalf("back to ndjson: n=%d corrupt=%d err=%v", n, corrupt, err)
	}
	if _, f := decodeAndCompare(t, back, events); f != FormatNDJSON {
		t.Fatalf("transcoded-back stream sniffs as %v", f)
	}

	if _, _, _, err := transcodeBytes([]byte("not json at all\n"), FormatBinary); err != nil {
		t.Fatalf("corrupt-only input must transcode to an empty stream, got %v", err)
	}
}

// TestBinarySizeWins sanity-checks the point of the format: the binary
// corpus is materially smaller than the NDJSON one.
func TestBinarySizeWins(t *testing.T) {
	events := goldenEvents()
	var nd bytes.Buffer
	s := NewNDJSONSink(&nd)
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	bin := encodeBinary(t, events)
	if len(bin)*2 > nd.Len() {
		t.Fatalf("binary %dB vs NDJSON %dB — expected at least 2x smaller", len(bin), nd.Len())
	}
}
