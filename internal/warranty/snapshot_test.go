package warranty

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"decos/internal/scenario"
	"decos/internal/trace"
)

// campaignBlobs runs a small traced campaign once and returns every
// vehicle's NDJSON blob, keyed 1-based — the shared corpus of the
// snapshot/merge tests.
func campaignBlobs(t *testing.T, vehicles int, rounds int64) map[int][]byte {
	t.Helper()
	blobs := make(map[int][]byte)
	c := scenario.Campaign{
		Vehicles:       vehicles,
		Rounds:         rounds,
		Seed:           20050404,
		FaultFreeShare: 0.2,
		Workers:        1,
	}
	c.RunTraced(func(v int, blob []byte) {
		blobs[v] = append([]byte(nil), blob...)
	})
	return blobs
}

func summaryJSON(t *testing.T, s *Summary) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRoundTrip: export → JSON → decode → MergeSnapshots over the
// single full snapshot must reproduce the collector's own Summary
// byte-for-byte, floats included.
func TestSnapshotRoundTrip(t *testing.T) {
	blobs := campaignBlobs(t, 12, 600)
	col := NewCollector(0)
	for _, b := range blobs {
		if _, _, err := col.IngestStream(bytes.NewReader(b), 0); err != nil {
			t.Fatal(err)
		}
	}

	snap := col.Snapshot("peer-a")
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded snapshot invalid: %v", err)
	}

	merged, err := MergeSnapshots([]*Snapshot{&back}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, col.Summary(0))
	got := summaryJSON(t, merged)
	if !bytes.Equal(got, want) {
		t.Fatalf("round-tripped summary diverged:\ngot  %s\nwant %s", got, want)
	}

	// The export is canonical: two exports of the same state are
	// byte-identical.
	wire2, _ := json.Marshal(col.Snapshot("peer-a"))
	if !bytes.Equal(wire, wire2) {
		t.Fatal("snapshot encoding is not canonical across exports")
	}
}

// TestMergeSnapshotsBitIdentical is the heart of the cluster guarantee:
// the same vehicle blobs split across K shard collectors, snapshotted and
// merged, must produce a Summary byte-identical to one collector ingesting
// everything — for several shard counts and merge orders.
func TestMergeSnapshotsBitIdentical(t *testing.T) {
	blobs := campaignBlobs(t, 16, 600)

	single := NewCollector(0)
	for _, b := range blobs {
		if _, _, err := single.IngestStream(bytes.NewReader(b), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := summaryJSON(t, single.Summary(0))

	for _, k := range []int{2, 3, 5} {
		shards := make([]*Collector, k)
		for i := range shards {
			shards[i] = NewCollector(0)
		}
		for v, b := range blobs {
			if _, _, err := shards[v%k].IngestStream(bytes.NewReader(b), 0); err != nil {
				t.Fatal(err)
			}
		}
		snaps := make([]*Snapshot, k)
		for i, c := range shards {
			snaps[i] = c.Snapshot("peer-" + strconv.Itoa(i))
		}
		// Merge in forward and reverse order: the fold must not care.
		for _, reverse := range []bool{false, true} {
			ordered := append([]*Snapshot(nil), snaps...)
			if reverse {
				for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
					ordered[i], ordered[j] = ordered[j], ordered[i]
				}
			}
			merged, err := MergeSnapshots(ordered, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryJSON(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("%d shards (reverse=%v): merged summary not byte-identical", k, reverse)
			}
		}
	}
}

// TestMergeSnapshotsRejects: version skew and duplicated vehicles are
// merge failures, not silent skew.
func TestMergeSnapshotsRejects(t *testing.T) {
	blobs := campaignBlobs(t, 4, 300)
	a, b := NewCollector(0), NewCollector(0)
	for v, blob := range blobs {
		c := a
		if v%2 == 0 {
			c = b
		}
		if _, _, err := c.IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Fatal(err)
		}
	}

	skewed := a.Snapshot("a")
	skewed.Version = SnapshotVersion + 1
	if _, err := MergeSnapshots([]*Snapshot{skewed, b.Snapshot("b")}, 0); err == nil {
		t.Fatal("version skew accepted")
	}
	if err := skewed.Validate(); err == nil {
		t.Fatal("Validate accepted version skew")
	}

	// The same peer twice duplicates every vehicle.
	if _, err := MergeSnapshots([]*Snapshot{a.Snapshot("a"), a.Snapshot("a2")}, 0); err == nil {
		t.Fatal("duplicated vehicles accepted")
	}

	corrupt := a.Snapshot("a")
	for i := range corrupt.Vehicles {
		if len(corrupt.Vehicles[i].Truths) > 0 {
			corrupt.Vehicles[i].Truths[0].Class = "definitely-not-a-class"
			break
		}
	}
	if err := corrupt.Validate(); err == nil {
		t.Skip("corpus produced no truths to corrupt")
	}
	if _, err := MergeSnapshots([]*Snapshot{corrupt}, 0); err == nil {
		t.Fatal("corrupt enum accepted")
	}
}

// TestSnapshotEndpoint: the HTTP export decodes, validates, carries the
// peer label, and MergeSnapshots of it matches the summary endpoint.
func TestSnapshotEndpoint(t *testing.T) {
	blobs := campaignBlobs(t, 6, 300)
	col := NewCollector(0)
	srv := httptest.NewServer(NewServer(col, ServerOptions{PeerName: "shard-7"}))
	defer srv.Close()
	for _, b := range blobs {
		resp, err := http.Post(srv.URL+"/v1/ingest", trace.ContentTypeBinary, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var snap Snapshot
	getJSON(t, srv.URL+"/v1/fleet/snapshot", &snap)
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Peer != "shard-7" {
		t.Fatalf("peer label = %q, want shard-7", snap.Peer)
	}
	if len(snap.Vehicles) != 6 {
		t.Fatalf("snapshot vehicles = %d, want 6", len(snap.Vehicles))
	}

	merged, err := MergeSnapshots([]*Snapshot{&snap}, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/fleet/summary")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimRight(string(summaryJSON(t, merged)), "\n"); got != strings.TrimRight(string(served), "\n") {
		t.Fatal("snapshot-derived summary diverged from the served summary")
	}
}

// TestRetryAfterHeader pins the backpressure contract: every 429 carries a
// parseable Retry-After hint, configurable per server.
func TestRetryAfterHeader(t *testing.T) {
	for _, tc := range []struct {
		opt  int
		want string
	}{{0, "1"}, {3, "3"}, {-1, "0"}} {
		col := NewCollector(0)
		srv := httptest.NewServer(NewServer(col, ServerOptions{MaxInflight: 1, RetryAfter: tc.opt}))

		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson", pr)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		if _, err := pw.Write([]byte(`{"t_us":1,"kind":"frame","vehicle":1}` + "\n")); err != nil {
			t.Fatal(err)
		}
		waitInflight(t, srv.URL, 1)

		resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson",
			strings.NewReader(`{"t_us":2,"kind":"frame","vehicle":2}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		hint := resp.Header.Get("Retry-After")
		if hint != tc.want {
			t.Fatalf("RetryAfter option %d: header = %q, want %q", tc.opt, hint, tc.want)
		}
		if _, err := strconv.Atoi(hint); err != nil {
			t.Fatalf("Retry-After %q is not whole seconds: %v", hint, err)
		}

		pw.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
}
