package warranty

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"decos/internal/trace"
)

// FuzzIngestStream throws arbitrary bytes at the ingest path every uplink
// and every HTTP request body goes through, NDJSON or binary. It must never
// panic, and the pooled stream reader must carry nothing from one call into
// the next: after each input, a fixed valid trace ingested into a fresh
// collector through the same pool must summarize exactly as it does in a
// collector that never saw the input. The corpus is seeded with one binary
// and one NDJSON campaign trace plus truncations of both, so the fuzzer
// starts from real records in either encoding.
func FuzzIngestStream(f *testing.F) {
	traces := campaignTraces(f, 2, 60)
	bin := traces[1]
	nd, _, corrupt, err := trace.TranscodeBytes(bin, trace.FormatNDJSON)
	if err != nil || corrupt != 0 {
		f.Fatalf("transcode: corrupt=%d err=%v", corrupt, err)
	}
	f.Add(bin)
	f.Add(nd)
	f.Add(bin[:len(bin)/2])
	f.Add(nd[:len(nd)/2])
	f.Add([]byte{})

	valid := traces[2]
	ingest := func(t testing.TB) *Summary {
		col := NewCollector(0)
		if _, corrupt, err := col.IngestStream(bytes.NewReader(valid), 0); err != nil || corrupt != 0 {
			t.Fatalf("valid trace: corrupt=%d err=%v", corrupt, err)
		}
		return col.Summary(0)
	}
	want := ingest(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Any outcome but a panic is acceptable for arbitrary input.
		NewCollector(0).IngestStream(bytes.NewReader(data), 0)
		if got := ingest(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("valid trace summarizes differently after input %q:\ngot  %+v\nwant %+v", data, got, want)
		}
	})
}

// FuzzSnapshot throws arbitrary bytes at the shard-snapshot decode a
// coordinator runs on every peer's GET /v1/fleet/snapshot body and a
// restarted daemon runs on its state file: JSON decode, then Validate.
// Decoding must never panic, and a snapshot Validate accepts must load
// into a fresh collector and merge without error or panic, and
// summarize. The corpus is seeded with a real two-vehicle snapshot, its
// truncations and JSON fragments at the validation boundaries.
func FuzzSnapshot(f *testing.F) {
	col := NewCollector(0)
	for _, tr := range campaignTraces(f, 2, 60) {
		if _, _, err := col.IngestStream(bytes.NewReader(tr), 0); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := json.Marshal(col.Snapshot("p0"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte{})
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"vehicles":[{"vehicle":1}]}`))
	f.Add([]byte(`{"version":1,"vehicles":[{"vehicle":2},{"vehicle":1}]}`))
	f.Add([]byte(`{"version":1,"vehicles":[{"vehicle":1,"truths":[{"class":"no such class"}]}]}`))
	f.Add([]byte(`{"version":1,"tally":{"jobs":[{"job":"A/A1","incidents":-3,"vehicles":[1,1]}]},"vehicles":[{"vehicle":1,"subjects":{"x":{"trust":{"n":-1}}}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		loaded := NewCollector(0)
		if err := loaded.LoadSnapshot(&s); err != nil {
			t.Fatalf("LoadSnapshot rejects a snapshot Validate accepts: %v", err)
		}
		loaded.Summary(0)
		if _, err := MergeSnapshots([]*Snapshot{&s}, 0); err != nil {
			t.Fatalf("MergeSnapshots rejects a snapshot Validate accepts: %v", err)
		}
	})
}
