package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"decos/internal/scenario"
	"decos/internal/telemetry"
	"decos/internal/trace"
	"decos/internal/warranty"
)

// TestClusterIntegration is the end-to-end path under -race: a traced
// campaign uplinked through the batching client into three fleetd peers,
// polled and merged by a coordinator, byte-identical to a single node
// that ingested the same corpus.
func TestClusterIntegration(t *testing.T) {
	const peersN = 3
	reg := telemetry.New()
	var urls []string
	for i := 0; i < peersN; i++ {
		srv := httptest.NewServer(warranty.NewServer(warranty.NewCollector(0), warranty.ServerOptions{
			PeerName: "peer-" + strconv.Itoa(i),
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	ring, err := NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ring, ClientOptions{MaxBatchBytes: 32 << 10, Telemetry: reg})
	single := warranty.NewCollector(0)

	c := scenario.Campaign{
		Vehicles:       15,
		Rounds:         600,
		Seed:           20050404,
		FaultFreeShare: 0.2,
		Workers:        1,
	}
	var uplinkErr error
	c.RunTraced(func(v int, blob []byte) {
		if _, _, err := single.IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Error(err)
		}
		if err := client.AddTrace(context.Background(), v, blob); err != nil && uplinkErr == nil {
			uplinkErr = err
		}
	})
	if uplinkErr != nil {
		t.Fatal(uplinkErr)
	}
	if err := client.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(urls, CoordinatorOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co)
	defer front.Close()

	code, got := getBody(t, front.URL+"/v1/fleet/summary")
	if code != 200 {
		t.Fatalf("summary status %d: %s", code, got)
	}
	want, err := json.MarshalIndent(single.Summary(0), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster summary diverged from single node over the uplinked corpus:\ngot  %s\nwant %s", got, want)
	}

	// The telemetry trail exists: events routed, batches delivered, polls
	// and merges counted.
	counters := reg.Snapshot().Counters
	if counters["cluster.client.events"] == 0 || counters["cluster.client.batches"] == 0 {
		t.Fatalf("client telemetry missing: %+v", counters)
	}
	if counters["cluster.polls"] == 0 || counters["cluster.merges"] == 0 {
		t.Fatalf("coordinator telemetry missing: %+v", counters)
	}
}

// newShardCluster spins up n fleetd shards and a client over them with
// the given wire encoding.
func newShardCluster(t *testing.T, n int, enc Encoding, namePrefix string) ([]string, *Client) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(warranty.NewServer(warranty.NewCollector(0), warranty.ServerOptions{
			PeerName: namePrefix + strconv.Itoa(i),
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	ring, err := NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	return urls, NewClient(ring, ClientOptions{MaxBatchBytes: 1 << 20, Encoding: enc})
}

// mergedSummaryJSON polls and merges the shards into the canonical
// indented summary encoding.
func mergedSummaryJSON(t *testing.T, urls []string) []byte {
	t.Helper()
	co, err := NewCoordinator(urls, CoordinatorOptions{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Merge(co.Poll(context.Background()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cluster != nil {
		t.Fatal("full-coverage merge carries a coverage block")
	}
	got, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestClusterE13ByteIdentical scales the guarantee to the E13 trace
// corpus (the experiment the warranty engine was built around): the full
// 150-vehicle campaign split over a 4-shard cluster must merge to a
// summary byte-identical to the single-node run — whether the traces
// travel the wire in the binary encoding (the default) or as NDJSON.
// The campaign is run once; the blobs feed all three sides.
func TestClusterE13ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("E13-scale corpus (150 vehicles x 3000 rounds) skipped in -short")
	}
	const shards = 4
	binURLs, binClient := newShardCluster(t, shards, EncodingBinary, "shard-bin-")
	ndURLs, ndClient := newShardCluster(t, shards, EncodingNDJSON, "shard-nd-")
	single := warranty.NewCollector(0)

	// E13 parameters (internal/experiments/e13_warranty.go).
	c := scenario.Campaign{
		Vehicles:       150,
		Rounds:         3000,
		Seed:           20050404,
		FaultFreeShare: 0.2,
	}
	c.RunTraced(func(v int, blob []byte) {
		if _, _, err := single.IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Error(err)
		}
		if err := binClient.AddTrace(context.Background(), v, blob); err != nil {
			t.Error(err)
		}
		if err := ndClient.AddTrace(context.Background(), v, blob); err != nil {
			t.Error(err)
		}
	})
	for _, cl := range []*Client{binClient, ndClient} {
		if err := cl.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := binClient.Stats(); st.CorruptDropped != 0 {
		t.Fatalf("binary uplink stats = %+v, want no corrupt drops", st)
	}

	want, err := json.MarshalIndent(single.Summary(0), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, urls := range map[string][]string{"binary": binURLs, "ndjson": ndURLs} {
		got := mergedSummaryJSON(t, urls)
		if !bytes.Equal(got, want) {
			t.Errorf("E13 4-shard merged summary over the %s wire is not byte-identical to the single-node summary", name)
		}
	}
}

// TestLoadGenDeterministic: the load generator is pure in (seed, vehicle)
// and its output survives the full ingest path.
func TestLoadGenDeterministic(t *testing.T) {
	g := LoadGen{Seed: 42, EventsPerVehicle: 50}
	a, b := g.VehicleTrace(7), g.VehicleTrace(7)
	if !bytes.Equal(a, b) {
		t.Fatal("load generator is not deterministic per vehicle")
	}
	if bytes.Equal(a, g.VehicleTrace(8)) {
		t.Fatal("distinct vehicles produced identical traces")
	}

	col := warranty.NewCollector(0)
	events, corrupt, err := col.IngestStream(bytes.NewReader(a), 0)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 || events == 0 {
		t.Fatalf("loadgen trace: %d events, %d corrupt", events, corrupt)
	}
	if col.Malformed() != 0 {
		t.Fatalf("loadgen trace produced %d malformed events — generator emits invalid enums", col.Malformed())
	}
	if col.Vehicles() != 1 {
		t.Fatalf("loadgen trace seen as %d vehicles", col.Vehicles())
	}

	// The binary emission is deterministic too, and carries the identical
	// event sequence: transcoding it to NDJSON reproduces VehicleTrace
	// byte-for-byte.
	ba, bb := g.VehicleTraceBinary(7), g.VehicleTraceBinary(7)
	if !bytes.Equal(ba, bb) {
		t.Fatal("binary load generator is not deterministic per vehicle")
	}
	if bytes.Equal(ba, g.VehicleTraceBinary(8)) {
		t.Fatal("distinct vehicles produced identical binary traces")
	}
	nd, n, corrupt, err := trace.TranscodeBytes(ba, trace.FormatNDJSON)
	if err != nil || corrupt != 0 {
		t.Fatalf("binary loadgen transcode: corrupt=%d err=%v", corrupt, err)
	}
	if n != events {
		t.Fatalf("binary trace carries %d events, NDJSON %d", n, events)
	}
	if !bytes.Equal(nd, a) {
		t.Fatal("binary loadgen trace transcoded to NDJSON differs from VehicleTrace")
	}
}
