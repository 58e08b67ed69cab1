package warranty

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"decos/internal/trace"
)

// FuzzIngestStream throws arbitrary bytes at the ingest path every HTTP
// request body and in-process trace goes through, NDJSON or binary. It must never
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

// FuzzIngestHTTP drives POST /v1/ingest through Server.ServeHTTP with a
// fuzzed Content-Type, body, MaxBodyBytes and declared or streamed body
// length. Whatever the input, the handler must not panic and must answer
// 200, 400, 413 or 415. A 415 ingests nothing. A 413 reports exactly what
// the collector holds. A 200 leaves the collector summarizing byte for
// byte as a fresh collector's IngestStream of the same body. The corpus
// is seeded with the golden binary stream, its NDJSON transcode, both cut
// by the body bound, and the media types the server refuses.
func FuzzIngestHTTP(f *testing.F) {
	bin, err := os.ReadFile("../trace/testdata/golden_v1.bin")
	if err != nil {
		f.Fatal(err)
	}
	nd, _, corrupt, err := trace.TranscodeBytes(bin, trace.FormatNDJSON)
	if err != nil || corrupt != 0 {
		f.Fatalf("transcode: corrupt=%d err=%v", corrupt, err)
	}
	for _, body := range [][]byte{bin, nd} {
		ct := trace.ContentTypeNDJSON
		if trace.HasBinaryHeader(body) {
			ct = trace.ContentTypeBinary
		}
		half := uint16(len(body) / 2)
		f.Add(ct, body, uint16(0), false)
		f.Add(ct, body, half, false)
		f.Add(ct, body, half, true)
	}
	for _, ct := range []string{"application/x-protobuf", "text/csv; charset=utf-8", "multipart/form-data"} {
		f.Add(ct, nd, uint16(0), false)
	}

	f.Fuzz(func(t *testing.T, contentType string, body []byte, maxBody uint16, chunked bool) {
		col := NewCollector(0)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		NewServer(col, ServerOptions{MaxBodyBytes: int64(maxBody)}).ServeHTTP(rec, req)

		var res ingestResult
		switch rec.Code {
		case http.StatusOK, http.StatusRequestEntityTooLarge:
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("%d answer %q: %v", rec.Code, rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest:
		case http.StatusUnsupportedMediaType:
			if col.Events() != 0 || col.Corrupt() != 0 {
				t.Fatalf("415 ingested %d events, %d corrupt", col.Events(), col.Corrupt())
			}
		default:
			t.Fatalf("status %d", rec.Code)
		}
		switch rec.Code {
		case http.StatusRequestEntityTooLarge:
			if int64(res.Ingested) != col.Events() || int64(res.Corrupt) != col.Corrupt() {
				t.Fatalf("413 answer %+v, collector holds %d events, %d corrupt", res, col.Events(), col.Corrupt())
			}
		case http.StatusOK:
			fresh := NewCollector(0)
			events, corrupt, err := fresh.IngestStream(bytes.NewReader(body), 0)
			if err != nil || events != res.Ingested || corrupt != res.Corrupt {
				t.Fatalf("200 answer %+v, IngestStream: %d events, %d corrupt, err %v", res, events, corrupt, err)
			}
			if got, want := summaryJSON(t, col.Summary(0)), summaryJSON(t, fresh.Summary(0)); !bytes.Equal(got, want) {
				t.Fatalf("served ingest summarizes differently:\ngot  %s\nwant %s", got, want)
			}
		}
	})
}

// FuzzSnapshot throws arbitrary bytes at the snapshot decode a restarted
// daemon runs on its state file: JSON decode, then Validate.
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
	snap, err := json.Marshal(col.Snapshot())
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
