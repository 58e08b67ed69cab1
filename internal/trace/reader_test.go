package trace

import (
	"bytes"
	"strings"
	"testing"
)

func ptrInt(v int) *int { return &v }

func sampleEvents() []Event {
	tv := 0.42
	return []Event{
		{T: 1000, Kind: "frame", Sender: ptrInt(2), Slot: ptrInt(3), Status: "corrupt"},
		{T: 2000, Kind: "symptom", Symptom: "omission", Subject: "component[1]", Observer: ptrInt(0), Count: 4, Dev: 1.5},
		{T: 3000, Kind: "verdict", Subject: "job[A/A1@0]", Class: "job-inherent", Pattern: "software", Action: "inspect-transducer", Conf: 0.8},
		{T: 4000, Kind: "trust", Subject: "component[2]", Trust: &tv},
		{T: 5000, Kind: "injection", Class: "component-borderline", Subject: "component[0]", Detail: "tx connector fretting"},
	}
}

// TestReaderRoundTrip writes events with the Recorder and reads them back.
func TestReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := &Recorder{sink: NewNDJSONSink(&buf), opts: Options{Vehicle: 7}}
	for _, e := range sampleEvents() {
		rec.write(e)
	}
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}

	r, _ := OpenReader(&buf)
	var got []Event
	if err := r.ReadAll(func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	want := sampleEvents()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Vehicle != 7 {
			t.Errorf("event %d: vehicle = %d, want 7 (stamped)", i, e.Vehicle)
		}
		if e.Kind != want[i].Kind || e.T != want[i].T || e.Subject != want[i].Subject {
			t.Errorf("event %d mismatch: %+v vs %+v", i, e, want[i])
		}
	}
	if e := sampleEvents()[3]; got[3].Trust == nil || *got[3].Trust != *e.Trust {
		t.Error("trust value lost in round trip")
	}
	if r.Corrupt() != 0 {
		t.Errorf("corrupt = %d, want 0", r.Corrupt())
	}
}

// TestReaderRecovery: corrupt lines are counted and skipped, never fatal.
func TestReaderRecovery(t *testing.T) {
	stream := `{"t_us":1,"kind":"frame"}
this is not json
{"t_us":2,"kind":"symptom","subject":"component[1]"}
{"t_us":3,   <- truncated
{"no_kind_field":true}

{"t_us":4,"kind":"trust","subject":"component[2]"}
`
	r, _ := OpenReader(strings.NewReader(stream))
	var kinds []string
	if err := r.ReadAll(func(e Event) { kinds = append(kinds, e.Kind) }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"frame", "symptom", "trust"}; strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	if r.Corrupt() != 3 {
		t.Errorf("corrupt = %d, want 3", r.Corrupt())
	}
	if n := r.(*Reader).lines; n != 6 {
		t.Errorf("lines = %d, want 6 (empty line not counted)", n)
	}
}

// TestReaderBoundedLine: an over-long line is dropped without growing the
// decode buffer and without killing the stream.
func TestReaderBoundedLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"t_us":1,"kind":"frame"}` + "\n")
	buf.WriteString(`{"t_us":2,"kind":"symptom","detail":"` + strings.Repeat("x", 1<<21) + `"}` + "\n")
	buf.WriteString(`{"t_us":3,"kind":"trust"}` + "\n")

	r, _ := OpenReader(&buf)
	r.SetMaxRecordBytes(64 << 10)
	var kinds []string
	if err := r.ReadAll(func(e Event) { kinds = append(kinds, e.Kind) }); err != nil {
		t.Fatal(err)
	}
	if want := "frame,trust"; strings.Join(kinds, ",") != want {
		t.Errorf("kinds = %v, want %s", kinds, want)
	}
	if r.Corrupt() != 1 {
		t.Errorf("corrupt = %d, want 1", r.Corrupt())
	}
}

// TestReaderNoTrailingNewline: the final unterminated line still decodes.
func TestReaderNoTrailingNewline(t *testing.T) {
	r, _ := OpenReader(strings.NewReader(`{"t_us":9,"kind":"frame"}`))
	var got []Event
	if err := r.ReadAll(func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].T != 9 || got[0].Kind != "frame" {
		t.Errorf("got %+v", got)
	}
}

// TestReaderCorruptErrorsLineNumbers: recovery errors carry the 1-based
// line number of the skipped line.
func TestReaderCorruptErrorsLineNumbers(t *testing.T) {
	stream := `{"t_us":1,"kind":"frame"}
garbage
{"t_us":2,"kind":"trust"}
{"no_kind_field":true}
`
	r, _ := OpenReader(strings.NewReader(stream))
	if err := r.ReadAll(func(Event) {}); err != nil {
		t.Fatal(err)
	}
	errs := r.CorruptErrors()
	if len(errs) != 2 {
		t.Fatalf("CorruptErrors = %v, want 2 entries", errs)
	}
	if !strings.Contains(errs[0].Error(), "line 2") {
		t.Errorf("first error %q does not name line 2", errs[0])
	}
	if !strings.Contains(errs[1].Error(), "line 4") || !strings.Contains(errs[1].Error(), "without kind") {
		t.Errorf("second error %q does not name line 4 / missing kind", errs[1])
	}
}

// TestReaderTruncatedFinalLine: a stream cut off mid-record — the common
// failure of an interrupted uplink — is flagged as such, with the line
// number, and does not kill the rest of the read.
func TestReaderTruncatedFinalLine(t *testing.T) {
	stream := `{"t_us":1,"kind":"frame"}
{"t_us":2,"kind":"symptom"}
{"t_us":3,"kind":"ver`
	r, _ := OpenReader(strings.NewReader(stream))
	var kinds []string
	if err := r.ReadAll(func(e Event) { kinds = append(kinds, e.Kind) }); err != nil {
		t.Fatal(err)
	}
	if want := "frame,symptom"; strings.Join(kinds, ",") != want {
		t.Errorf("kinds = %v, want %s", kinds, want)
	}
	if r.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1", r.Corrupt())
	}
	msg := r.CorruptErrors()[0].Error()
	if !strings.Contains(msg, "line 3") {
		t.Errorf("error %q does not name line 3", msg)
	}
	if !strings.Contains(msg, "truncated final line") {
		t.Errorf("error %q does not flag the truncated final line", msg)
	}
}

// TestReaderCorruptErrorsBounded: detail retention is capped; the count
// keeps going.
func TestReaderCorruptErrorsBounded(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("not json\n")
	}
	r, _ := OpenReader(strings.NewReader(b.String()))
	if err := r.ReadAll(func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if r.Corrupt() != 40 {
		t.Errorf("corrupt = %d, want 40", r.Corrupt())
	}
	if got := len(r.CorruptErrors()); got != maxCorruptErrors {
		t.Errorf("retained %d errors, want cap %d", got, maxCorruptErrors)
	}
}
