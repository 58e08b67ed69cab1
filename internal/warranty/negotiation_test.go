package warranty

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"decos/internal/scenario"
	"decos/internal/trace"
)

func post(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestIngestContentNegotiation pins the /v1/ingest media-type contract:
// the binary and NDJSON families are accepted (an absent Content-Type
// stays NDJSON for pre-binary producers), anything else is refused with
// 415 and an Accept-Post listing — counted, never ingested.
func TestIngestContentNegotiation(t *testing.T) {
	col := NewCollector(0)
	srv := NewServer(col, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var nd bytes.Buffer
	sink := trace.NewNDJSONSink(&nd)
	for _, e := range []trace.Event{
		{T: 1, Kind: "vehicle", Vehicle: 1, Detail: "fault-free"},
		{T: 2, Kind: "frame", Vehicle: 1, Status: "ok"},
	} {
		if err := sink.Record(&e); err != nil {
			t.Fatal(err)
		}
	}
	bin, n, corrupt, err := trace.TranscodeBytes(nd.Bytes(), trace.FormatBinary)
	if err != nil || corrupt != 0 || n != 2 {
		t.Fatalf("transcode: n=%d corrupt=%d err=%v", n, corrupt, err)
	}

	for _, ct := range []string{"application/x-protobuf", "text/csv; charset=utf-8", "multipart/form-data"} {
		resp := post(t, ts.URL+"/v1/ingest", ct, nd.Bytes())
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		if ap := resp.Header.Get("Accept-Post"); !strings.Contains(ap, trace.ContentTypeBinary) ||
			!strings.Contains(ap, trace.ContentTypeNDJSON) {
			t.Fatalf("Content-Type %q: Accept-Post = %q", ct, ap)
		}
	}
	if got := col.Events(); got != 0 {
		t.Fatalf("refused requests ingested %d events", got)
	}

	accepted := []string{
		trace.ContentTypeBinary,
		trace.ContentTypeNDJSON,
		trace.ContentTypeNDJSON + "; charset=utf-8",
		"application/json",
		"text/plain",
		"", // historical producers send no Content-Type at all
	}
	for _, ct := range accepted {
		body := nd.Bytes()
		if ct == trace.ContentTypeBinary {
			body = bin
		}
		resp := post(t, ts.URL+"/v1/ingest", ct, body)
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("Content-Type %q: status %d: %s", ct, resp.StatusCode, msg)
		}
	}
	if got, want := col.Events(), int64(2*len(accepted)); got != want {
		t.Fatalf("ingested %d events, want %d", got, want)
	}

	reg := srv.Telemetry()
	if got := reg.Counter("ingest.unsupported_media").Value(); got != 3 {
		t.Errorf("ingest.unsupported_media = %d, want 3", got)
	}
	if got := reg.Counter("ingest.binary_requests").Value(); got != 1 {
		t.Errorf("ingest.binary_requests = %d, want 1", got)
	}
	if got := reg.Counter("ingest.requests").Value(); got != int64(3+len(accepted)) {
		t.Errorf("ingest.requests = %d, want %d", got, 3+len(accepted))
	}
}

// TestIngestMixedEncodingsAgree runs one campaign into two servers — one
// fed pure NDJSON, one fed an alternating mix of binary and NDJSON — and
// requires the ingest counters and the summary to agree exactly: the
// wire encoding must be invisible to warranty analysis.
func TestIngestMixedEncodingsAgree(t *testing.T) {
	c := scenario.Campaign{Vehicles: 24, Rounds: 400, Seed: 71, FaultFreeShare: 0.25}
	var mu sync.Mutex // the sink runs on every campaign worker
	var blobs [][]byte
	c.RunTraced(func(v int, blob []byte) {
		mu.Lock()
		blobs = append(blobs, append([]byte(nil), blob...))
		mu.Unlock()
	})

	colPure, colMixed := NewCollector(0), NewCollector(0)
	srvPure, srvMixed := NewServer(colPure, ServerOptions{}), NewServer(colMixed, ServerOptions{})
	tsPure, tsMixed := httptest.NewServer(srvPure), httptest.NewServer(srvMixed)
	defer tsPure.Close()
	defer tsMixed.Close()

	// The campaign records binary; the NDJSON bodies are its transcodes.
	for i, blob := range blobs {
		nd, _, corrupt, err := trace.TranscodeBytes(blob, trace.FormatNDJSON)
		if err != nil || corrupt != 0 {
			t.Fatalf("vehicle %d transcode: corrupt=%d err=%v", i, corrupt, err)
		}
		if resp := post(t, tsPure.URL+"/v1/ingest", trace.ContentTypeNDJSON, nd); resp.StatusCode != http.StatusOK {
			t.Fatalf("pure vehicle %d: status %d", i, resp.StatusCode)
		}
		body, ct := nd, trace.ContentTypeNDJSON
		if i%2 == 0 {
			body, ct = blob, trace.ContentTypeBinary
		}
		if resp := post(t, tsMixed.URL+"/v1/ingest", ct, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("mixed vehicle %d: status %d", i, resp.StatusCode)
		}
	}

	for _, name := range []string{"ingest.requests", "ingest.events", "ingest.corrupt_lines"} {
		p, m := srvPure.Telemetry().Counter(name).Value(), srvMixed.Telemetry().Counter(name).Value()
		if p != m {
			t.Errorf("%s: pure %d, mixed %d", name, p, m)
		}
	}
	if colPure.Events() == 0 {
		t.Fatal("campaign produced no events")
	}

	pure := getBody(t, tsPure.URL+"/v1/fleet/summary")
	mixed := getBody(t, tsMixed.URL+"/v1/fleet/summary")
	if !bytes.Equal(pure, mixed) {
		t.Fatalf("summaries differ by wire encoding:\npure:  %s\nmixed: %s", pure, mixed)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}
