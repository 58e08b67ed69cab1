package warranty

import (
	"bytes"
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
