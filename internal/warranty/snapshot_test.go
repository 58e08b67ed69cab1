package warranty

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"decos/internal/scenario"
	"decos/internal/trace"
)

// campaignBlobs runs a small traced campaign once and returns every
// vehicle's binary trace blob, keyed 1-based — the shared corpus of the
// snapshot and state-file tests.
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

	snap := col.Snapshot()
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
	wire2, _ := json.Marshal(col.Snapshot())
	if !bytes.Equal(wire, wire2) {
		t.Fatal("snapshot encoding is not canonical across exports")
	}
}

// TestMergeSnapshotsBitIdentical is the warranty merge law: the same
// vehicle traces split by vehicle across K collectors, each snapshot sent
// over the JSON wire (marshal, unmarshal, Validate) and then merged, must
// give a Summary byte-identical to one collector ingesting everything —
// whether the shards ingested the binary traces or their NDJSON
// transcodes, and in either merge order. The E13 input is that
// experiment's full corpus (internal/experiments/e13_warranty.go) over 4
// shards; the campaign runs once and its blobs feed every side.
func TestMergeSnapshotsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		vehicles int
		rounds   int64
		shards   []int
	}{
		{"small", 16, 600, []int{2, 3, 5}},
		{"E13", 150, 3000, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "E13" && testing.Short() {
				t.Skip("E13-scale corpus (150 vehicles x 3000 rounds) skipped in -short")
			}
			// One split per shard count and trace encoding; vehicle v goes
			// to cols[v%k].
			type split struct {
				k      int
				ndjson bool
				cols   []*Collector
			}
			var splits []split
			for _, k := range tc.shards {
				for _, nd := range []bool{false, true} {
					sp := split{k: k, ndjson: nd}
					for i := 0; i < k; i++ {
						sp.cols = append(sp.cols, NewCollector(0))
					}
					splits = append(splits, sp)
				}
			}
			single := NewCollector(0)
			ingest := func(c *Collector, body []byte) {
				if _, corrupt, err := c.IngestStream(bytes.NewReader(body), 0); err != nil || corrupt != 0 {
					t.Errorf("ingest: corrupt=%d err=%v", corrupt, err)
				}
			}
			c := scenario.Campaign{
				Vehicles:       tc.vehicles,
				Rounds:         tc.rounds,
				Seed:           20050404,
				FaultFreeShare: 0.2,
			}
			c.RunTraced(func(v int, blob []byte) {
				nd, _, corrupt, err := trace.TranscodeBytes(blob, trace.FormatNDJSON)
				if err != nil || corrupt != 0 {
					t.Errorf("vehicle %d transcode: corrupt=%d err=%v", v, corrupt, err)
				}
				ingest(single, blob)
				for _, sp := range splits {
					body := blob
					if sp.ndjson {
						body = nd
					}
					ingest(sp.cols[v%sp.k], body)
				}
			})
			want := summaryJSON(t, single.Summary(0))

			for _, sp := range splits {
				snaps := make([]*Snapshot, sp.k)
				for i, col := range sp.cols {
					wire, err := json.Marshal(col.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					snaps[i] = new(Snapshot)
					if err := json.Unmarshal(wire, snaps[i]); err != nil {
						t.Fatal(err)
					}
					if err := snaps[i].Validate(); err != nil {
						t.Fatalf("%d shards (ndjson=%v): snapshot %d invalid: %v", sp.k, sp.ndjson, i, err)
					}
				}
				for _, reverse := range []bool{false, true} {
					if reverse {
						slices.Reverse(snaps)
					}
					merged, err := MergeSnapshots(snaps, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got := summaryJSON(t, merged); !bytes.Equal(got, want) {
						t.Errorf("%d shards (ndjson=%v, reverse=%v): merged summary not byte-identical to the single collector's",
							sp.k, sp.ndjson, reverse)
					}
				}
			}
		})
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

	skewed := a.Snapshot()
	skewed.Version = SnapshotVersion + 1
	if _, err := MergeSnapshots([]*Snapshot{skewed, b.Snapshot()}, 0); err == nil {
		t.Fatal("version skew accepted")
	}
	if err := skewed.Validate(); err == nil {
		t.Fatal("Validate accepted version skew")
	}

	// The same collector twice duplicates every vehicle.
	if _, err := MergeSnapshots([]*Snapshot{a.Snapshot(), a.Snapshot()}, 0); err == nil {
		t.Fatal("duplicated vehicles accepted")
	}

	corrupt := a.Snapshot()
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
