package trace

import (
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

// decodeAndCompare decodes the stream and compares each event against
// want as it arrives — pointer fields of a BinaryReader event are only
// valid until the next Next call, so comparison must be in-stream.
func decodeAndCompare(t *testing.T, rd EventReader, want []Event) {
	t.Helper()
	i := 0
	err := rd.ReadAll(func(e Event) {
		if i >= len(want) {
			t.Fatalf("decoded %d+ events, want %d", i+1, len(want))
		}
		if !reflect.DeepEqual(e, want[i]) {
			t.Errorf("event %d:\ngot  %+v\nwant %+v", i, e, want[i])
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d events, want %d", i, len(want))
	}
	if rd.Corrupt() != 0 {
		t.Fatalf("clean stream reported %d corrupt records: %v", rd.Corrupt(), rd.CorruptErrors())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events := goldenEvents()
	blob := encodeBinary(t, events)
	rd, f := OpenReader(bytes.NewReader(blob))
	if f != FormatBinary {
		t.Fatalf("sniffed %v, want binary", f)
	}
	decodeAndCompare(t, rd, events)
	if rd.Records() != len(events) {
		t.Fatalf("Records() = %d, want %d", rd.Records(), len(events))
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
	decodeAndCompare(t, NewBinaryReader(bytes.NewReader(got)), goldenEvents())
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
	rd, f := OpenReader(bytes.NewReader(nd.Bytes()))
	if f != FormatNDJSON {
		t.Fatalf("NDJSON sniffed as %v", f)
	}
	decodeAndCompare(t, rd, events)

	if _, f := OpenReader(strings.NewReader("")); f != FormatNDJSON {
		t.Fatalf("empty stream sniffed as %v, want ndjson", f)
	}
	rd, f = OpenReader(bytes.NewReader(AppendHeader(nil)))
	if f != FormatBinary {
		t.Fatalf("header-only stream sniffed as %v, want binary", f)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("header-only stream Next = %v, want io.EOF", err)
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

	rd := NewBinaryReader(bytes.NewReader(blob))
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
		rd := NewBinaryReader(bytes.NewReader(blob[:cut]))
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

	rd := NewBinaryReader(bytes.NewReader(poisoned))
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
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("poisoned reader Next = %v, want io.EOF", err)
	}
}

func TestBinaryReaderBadMagicAndVersion(t *testing.T) {
	rd := NewBinaryReader(strings.NewReader(`{"t_us":1,"kind":"frame"}` + "\n"))
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Fatalf("NDJSON through the binary decoder = %v, want a bad-magic error", err)
	}

	skew := AppendHeader(nil)
	skew[len(skew)-1] = BinaryVersion + 1
	rd = NewBinaryReader(bytes.NewReader(skew))
	_, err := rd.Next()
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version stream = %v, want a version error", err)
	}
	if _, err2 := rd.Next(); err2 != err {
		t.Fatalf("fatal error is not sticky: %v then %v", err, err2)
	}
}

func TestBinaryReaderRecordBound(t *testing.T) {
	blob := encodeBinary(t, goldenEvents())
	rd := NewBinaryReader(bytes.NewReader(blob))
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

// TestTranscodeBytes: NDJSON → binary → NDJSON preserves every event
// value-for-value.
func TestTranscodeBytes(t *testing.T) {
	events := goldenEvents()
	var nd bytes.Buffer
	s := NewNDJSONSink(&nd)
	for i := range events {
		if err := s.Record(&events[i]); err != nil {
			t.Fatal(err)
		}
	}

	bin, n, corrupt, err := TranscodeBytes(nd.Bytes(), FormatBinary)
	if err != nil || corrupt != 0 || n != len(events) {
		t.Fatalf("to binary: n=%d corrupt=%d err=%v", n, corrupt, err)
	}
	decodeAndCompare(t, NewBinaryReader(bytes.NewReader(bin)), events)

	back, n, corrupt, err := TranscodeBytes(bin, FormatNDJSON)
	if err != nil || corrupt != 0 || n != len(events) {
		t.Fatalf("back to ndjson: n=%d corrupt=%d err=%v", n, corrupt, err)
	}
	rd, f := OpenReader(bytes.NewReader(back))
	if f != FormatNDJSON {
		t.Fatalf("transcoded-back stream sniffs as %v", f)
	}
	decodeAndCompare(t, rd, events)

	if _, _, _, err := TranscodeBytes([]byte("not json at all\n"), FormatBinary); err != nil {
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
