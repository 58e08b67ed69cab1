package warranty

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decos/internal/scenario"
	"decos/internal/telemetry"
	"decos/internal/trace"
)

// TestMetricsEndpointLive drives a fleetd-style server — shared telemetry
// registry, campaign traffic POSTed over HTTP — and checks that GET
// /v1/metrics reports the load that actually went through.
func TestMetricsEndpointLive(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	col := NewCollector(0)
	reg := telemetry.New()
	srv := NewServer(col, ServerOptions{Telemetry: reg})
	if srv.metrics != reg {
		t.Fatal("server did not adopt the supplied registry")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := scenario.Campaign{Vehicles: 10, Rounds: 500, Seed: 20050404}
	c.RunTraced(func(v int, blob []byte) {
		resp, err := http.Post(ts.URL+"/v1/ingest", trace.ContentTypeBinary, bytes.NewReader(blob))
		if err != nil {
			t.Errorf("vehicle %d: %v", v, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})

	var s telemetry.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &s)

	if got := s.Counters["ingest.requests"]; got != int64(c.Vehicles) {
		t.Errorf("ingest.requests = %d, want %d", got, c.Vehicles)
	}
	if got := s.Counters["ingest.binary_requests"]; got != int64(c.Vehicles) {
		t.Errorf("ingest.binary_requests = %d, want %d", got, c.Vehicles)
	}
	if got := s.Counters["ingest.events"]; got != col.Events() {
		t.Errorf("ingest.events = %d, collector says %d", got, col.Events())
	}
	if got := s.Gauges["fleet.vehicles"]; got != int64(c.Vehicles) {
		t.Errorf("fleet.vehicles = %d, want %d", got, c.Vehicles)
	}
	if got := s.Gauges["fleet.frames"]; got != col.Frames() || got == 0 {
		t.Errorf("fleet.frames = %d, collector says %d (want nonzero)", got, col.Frames())
	}
	if got := s.Gauges["warranty.shard_depth_max"]; got < 1 {
		t.Errorf("warranty.shard_depth_max = %d, want >= 1", got)
	}
	h := s.Histograms["ingest.request_ns"]
	if h.Count != int64(c.Vehicles) || h.Sum <= 0 {
		t.Errorf("ingest.request_ns = %+v, want count %d with positive sum", h, c.Vehicles)
	}

	// The expvar view serves the same values flattened.
	var flat map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/metrics?format=expvar", &flat)
	var reqs int64
	if err := json.Unmarshal(flat["ingest.requests"], &reqs); err != nil || reqs != int64(c.Vehicles) {
		t.Errorf("expvar ingest.requests = %s (err %v), want %d", flat["ingest.requests"], err, c.Vehicles)
	}
}

// TestHealthzMetricsAgree: healthz reads its ingestion counters from the
// telemetry registry, so the two endpoints can never drift — including the
// 429 rejected count.
func TestHealthzMetricsAgree(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewCollector(0), ServerOptions{MaxInflight: 1}))
	defer ts.Close()

	// One good ingest, then one rejected while the slot is held open.
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"t_us":1,"kind":"frame","vehicle":1}` + "\n"); code != http.StatusOK {
		t.Fatalf("ingest status = %d", code)
	}
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte(`{"t_us":2,"kind":"frame","vehicle":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, ts.URL, 1)
	if code := post(`{"t_us":3,"kind":"frame","vehicle":3}` + "\n"); code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", code)
	}
	pw.Close()
	<-done

	var health struct {
		IngestRequests int64 `json:"ingest_requests"`
		IngestRejected int64 `json:"ingest_rejected"`
	}
	getJSON(t, ts.URL+"/v1/healthz", &health)
	var s telemetry.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &s)

	if health.IngestRequests != s.Counters["ingest.requests"] ||
		health.IngestRejected != s.Counters["ingest.rejected"] {
		t.Errorf("healthz %+v disagrees with metrics %v", health, s.Counters)
	}
	if health.IngestRequests != 3 {
		t.Errorf("ingest_requests = %d, want 3", health.IngestRequests)
	}
	if health.IngestRejected != 1 {
		t.Errorf("ingest_rejected = %d, want 1", health.IngestRejected)
	}
}
