package warranty

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"decos/internal/scenario"
	"decos/internal/trace"
)

// TestHTTPFleetCampaign is the acceptance path: ≥ 100 simulated vehicles
// POSTed as NDJSON over HTTP (concurrently, straight from the campaign
// workers) must yield a /v1/fleet/summary whose NFF ratios and 20-80
// concentration match the in-process numbers for the same seeds.
func TestHTTPFleetCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	col := NewCollector(0)
	ts := httptest.NewServer(NewServer(col, ServerOptions{}))
	defer ts.Close()

	c := scenario.Campaign{
		Vehicles:       100,
		Rounds:         1000,
		Seed:           20050404,
		FaultFreeShare: 0.2,
	}
	res := c.RunTraced(func(v int, blob []byte) {
		resp, err := http.Post(ts.URL+"/v1/ingest", trace.ContentTypeBinary, bytes.NewReader(blob))
		if err != nil {
			t.Errorf("vehicle %d: %v", v, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Errorf("vehicle %d: status %d: %s", v, resp.StatusCode, body)
		}
	})

	var s Summary
	getJSON(t, ts.URL+"/v1/fleet/summary", &s)

	if s.Vehicles != c.Vehicles {
		t.Fatalf("summary vehicles = %d, want %d", s.Vehicles, c.Vehicles)
	}
	for name, rep := range map[string]interface {
		NFFRatio() float64
	}{"decos": res.DECOS, "obd": res.OBD} {
		arm := s.Arms[name]
		if arm == nil {
			t.Fatalf("arm %q missing", name)
		}
		if arm.NFFRatio != rep.NFFRatio() {
			t.Errorf("%s NFF ratio over HTTP = %v, in-process = %v", name, arm.NFFRatio, rep.NFFRatio())
		}
	}
	if s.Arms["decos"].Cost != res.DECOS.Cost || s.Arms["obd"].Cost != res.OBD.Cost {
		t.Errorf("removal cost mismatch: %v/%v vs %v/%v",
			s.Arms["decos"].Cost, s.Arms["obd"].Cost, res.DECOS.Cost, res.OBD.Cost)
	}
	if s.Fleet.Pareto20 != res.Fleet.Pareto(0.2) {
		t.Errorf("20-80 concentration over HTTP = %v, in-process = %v", s.Fleet.Pareto20, res.Fleet.Pareto(0.2))
	}
	if s.Fleet.Incidents != res.Fleet.Incidents() {
		t.Errorf("fleet incidents = %d, want %d", s.Fleet.Incidents, res.Fleet.Incidents())
	}

	// Drill into the FRU with the most verdicts.
	if len(s.FRUs) == 0 {
		t.Fatal("no FRUs in summary")
	}
	best := s.FRUs[0]
	for _, f := range s.FRUs {
		if f.Verdicts > best.Verdicts {
			best = f
		}
	}
	var d FRUDetail
	getJSON(t, ts.URL+"/v1/fru/"+url.PathEscape(best.FRU), &d)
	if d.Verdicts != best.Verdicts || d.Vehicles != best.Vehicles {
		t.Errorf("FRU detail %+v does not match summary row %+v", d.FRUStat, best)
	}

	var health struct {
		Status   string `json:"status"`
		Vehicles int    `json:"vehicles"`
		Events   int64  `json:"events"`
	}
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.Status != "ok" || health.Vehicles != c.Vehicles || health.Events == 0 {
		t.Errorf("healthz = %+v", health)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestIngestBackpressure: with the ingest queue full, further POSTs are
// refused with 429 instead of queueing unboundedly.
func TestIngestBackpressure(t *testing.T) {
	col := NewCollector(0)
	ts := httptest.NewServer(NewServer(col, ServerOptions{MaxInflight: 1}))
	defer ts.Close()

	// Occupy the single queue slot with a request whose body stays open.
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	if _, err := pw.Write([]byte(`{"t_us":1,"kind":"frame","vehicle":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, ts.URL, 1)

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(`{"t_us":2,"kind":"frame","vehicle":2}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest status = %d, want 429", resp.StatusCode)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The slot is free again: the retry succeeds.
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(`{"t_us":3,"kind":"frame","vehicle":2}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, want 200", resp.StatusCode)
	}
}

func waitInflight(t *testing.T, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var health struct {
			Inflight int64 `json:"inflight_ingests"`
		}
		getJSON(t, base+"/v1/healthz", &health)
		if health.Inflight == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("inflight never reached %d", want)
}

// TestUnknownFRU404 and method guards.
func TestHTTPErrors(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewCollector(0), ServerOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/fru/" + url.PathEscape("component[9]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown FRU status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ingest status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/fleet/summary?threshold=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad threshold status = %d, want 400", resp.StatusCode)
	}
}

// TestIngestBodyTooLarge pins the MaxBodyBytes contract for both encodings.
// A body declared longer than the bound is refused with 413 unread: the
// collector and the ingest counters stay untouched. A streamed (chunked)
// body that runs past the bound gets 413 too, and its answer reports
// exactly the events ingested before the bound tripped; the record the
// bound cut short is unread, not corrupt.
func TestIngestBodyTooLarge(t *testing.T) {
	bin := campaignTraces(t, 1, 300)[1]
	nd, _, corrupt, err := trace.TranscodeBytes(bin, trace.FormatNDJSON)
	if err != nil || corrupt != 0 {
		t.Fatalf("transcode: corrupt=%d err=%v", corrupt, err)
	}
	for _, tc := range []struct {
		name        string
		contentType string
		body        []byte
		chunked     bool
	}{
		{"binary/declared", trace.ContentTypeBinary, bin, false},
		{"binary/chunked", trace.ContentTypeBinary, bin, true},
		{"ndjson/declared", trace.ContentTypeNDJSON, nd, false},
		{"ndjson/chunked", trace.ContentTypeNDJSON, nd, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := NewCollector(0)
			srv := NewServer(col, ServerOptions{MaxBodyBytes: int64(len(tc.body) / 2)})
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			if tc.chunked {
				req.ContentLength = -1 // no declared length, as a chunked body arrives
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", rec.Code)
			}
			var res ingestResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if res.Error == "" {
				t.Error("413 answer carries no error message")
			}
			if int64(res.Ingested) != col.Events() || res.Corrupt != 0 || col.Corrupt() != 0 {
				t.Fatalf("answer %+v, collector holds %d events, %d corrupt", res, col.Events(), col.Corrupt())
			}
			if tc.chunked && res.Ingested == 0 {
				t.Fatal("nothing ingested before the bound tripped")
			}
			if !tc.chunked && res.Ingested != 0 {
				t.Fatalf("declared-length body ingested %d events", res.Ingested)
			}
			if got := srv.Telemetry().Snapshot().Counters["ingest.events"]; got != col.Events() {
				t.Fatalf("ingest.events = %d, collector holds %d", got, col.Events())
			}
		})
	}
}
