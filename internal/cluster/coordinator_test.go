package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"decos/internal/scenario"
	"decos/internal/telemetry"
	"decos/internal/warranty"
)

// shardFixture is a small sharded cluster: the campaign corpus ingested
// into n warranty servers by ring ownership, plus a single-node collector
// holding everything — the byte-identity reference.
type shardFixture struct {
	peers  []*httptest.Server
	urls   []string
	single *warranty.Collector
}

func newShardFixture(t *testing.T, n, vehicles int, rounds int64) *shardFixture {
	t.Helper()
	f := &shardFixture{single: warranty.NewCollector(0)}
	cols := make([]*warranty.Collector, n)
	for i := range cols {
		cols[i] = warranty.NewCollector(0)
		srv := httptest.NewServer(warranty.NewServer(cols[i], warranty.ServerOptions{
			PeerName: "peer-" + strconv.Itoa(i),
		}))
		t.Cleanup(srv.Close)
		f.peers = append(f.peers, srv)
		f.urls = append(f.urls, srv.URL)
	}
	ring, err := NewRing(f.urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	byURL := make(map[string]*warranty.Collector, n)
	for j, orig := range f.urls {
		byURL[orig] = cols[j]
	}

	c := scenario.Campaign{
		Vehicles:       vehicles,
		Rounds:         rounds,
		Seed:           20050404,
		FaultFreeShare: 0.2,
		Workers:        1,
	}
	c.RunTraced(func(v int, blob []byte) {
		if _, _, err := f.single.IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Error(err)
		}
		if _, _, err := byURL[ring.Owner(v)].IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Error(err)
		}
	})
	return f
}

func getBody(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, b
}

// TestCoordinatorHealthyByteIdentical: with every shard reachable, the
// coordinator's merged summary must be byte-identical to the single-node
// summary — and must carry no cluster coverage block.
func TestCoordinatorHealthyByteIdentical(t *testing.T) {
	f := newShardFixture(t, 3, 12, 600)
	co, err := NewCoordinator(f.urls, CoordinatorOptions{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co)
	defer front.Close()

	code, got := getBody(t, front.URL+"/v1/fleet/summary")
	if code != http.StatusOK {
		t.Fatalf("summary status %d: %s", code, got)
	}
	want, err := json.MarshalIndent(f.single.Summary(0), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("merged summary is not byte-identical to single node:\ngot  %s\nwant %s", got, want)
	}
	if bytes.Contains(got, []byte(`"cluster"`)) {
		t.Fatal("healthy merged summary carries a cluster coverage block")
	}
}

// TestCoordinatorPeerDown: a dead shard degrades the view explicitly —
// partial coverage with the failed peer named and the covered vehicle
// count — instead of silently serving a short fleet.
func TestCoordinatorPeerDown(t *testing.T) {
	f := newShardFixture(t, 3, 12, 300)
	// Kill one peer after ingest.
	f.peers[1].Close()

	co, err := NewCoordinator(f.urls, CoordinatorOptions{
		PeerTimeout: time.Second, Retries: 1, Backoff: 5 * time.Millisecond,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	poll := co.Poll(context.Background())
	cov := poll.Coverage()
	if !cov.Partial || cov.PeersOK != 2 || cov.Peers != 3 {
		t.Fatalf("coverage = %+v, want partial 2/3", cov)
	}
	if len(cov.FailedPeers) != 1 || cov.FailedPeers[0] != f.peers[1].URL {
		t.Fatalf("failed peers = %v, want [%s]", cov.FailedPeers, f.peers[1].URL)
	}

	merged, err := co.Merge(poll, 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cluster == nil || !merged.Cluster.Partial {
		t.Fatal("partial merge carries no cluster coverage block")
	}
	if merged.Cluster.VehiclesCovered != merged.Summary.Vehicles || merged.Cluster.VehiclesCovered <= 0 {
		t.Fatalf("vehicles covered = %d, summary vehicles = %d — the coverage count must name exactly the shard-backed vehicles",
			merged.Cluster.VehiclesCovered, merged.Summary.Vehicles)
	}

	// Attempts: first try plus one retry against the dead peer.
	for _, st := range poll.Status {
		if st.Peer == f.peers[1].URL {
			if st.OK || st.Attempts != 2 || st.Error == "" {
				t.Fatalf("dead peer status = %+v, want 2 failed attempts with error", st)
			}
		} else if !st.OK {
			t.Fatalf("live peer reported down: %+v", st)
		}
	}
}

// TestCoordinatorSlowPeer: a peer slower than PeerTimeout is treated as
// down for the poll; the rest of the cluster still answers.
func TestCoordinatorSlowPeer(t *testing.T) {
	f := newShardFixture(t, 2, 8, 300)
	stall := make(chan struct{})
	defer close(stall)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()

	urls := append(append([]string(nil), f.urls...), slow.URL)
	co, err := NewCoordinator(urls, CoordinatorOptions{
		PeerTimeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	poll := co.Poll(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("poll took %v — the slow peer was not bounded by PeerTimeout", elapsed)
	}
	cov := poll.Coverage()
	if !cov.Partial || cov.PeersOK != 2 {
		t.Fatalf("coverage = %+v, want 2 of 3 with the slow peer down", cov)
	}
	if _, err := co.Merge(poll, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorCorruptSnapshot: a peer serving garbage (or a version it
// shouldn't) is attributed as a per-peer failure, not a cluster-wide one.
func TestCoordinatorCorruptSnapshot(t *testing.T) {
	f := newShardFixture(t, 2, 8, 300)

	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"version":9999,"peer":"evil","vehicles":[]}`)
	}))
	defer corrupt.Close()

	urls := append(append([]string(nil), f.urls...), corrupt.URL)
	co, err := NewCoordinator(urls, CoordinatorOptions{
		PeerTimeout: time.Second, Retries: 1, Backoff: time.Millisecond,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	poll := co.Poll(context.Background())
	cov := poll.Coverage()
	if !cov.Partial || cov.PeersOK != 2 {
		t.Fatalf("coverage = %+v, want corrupt peer excluded", cov)
	}
	found := false
	for _, st := range poll.Status {
		if st.Peer == corrupt.URL {
			found = true
			if st.OK || st.Error == "" {
				t.Fatalf("corrupt peer status = %+v, want attributed failure", st)
			}
		}
	}
	if !found {
		t.Fatal("corrupt peer missing from poll status")
	}
	if _, err := co.Merge(poll, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorAllPeersDown: zero reachable shards is 503, never an
// empty fleet.
func TestCoordinatorAllPeersDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close()

	co, err := NewCoordinator([]string{dead.URL}, CoordinatorOptions{
		PeerTimeout: 100 * time.Millisecond, Retries: 1, Backoff: time.Millisecond,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co)
	defer front.Close()

	code, body := getBody(t, front.URL+"/v1/fleet/summary")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("summary with no peers = %d (%s), want 503", code, body)
	}
	code, body = getBody(t, front.URL+"/v1/cluster/healthz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"down"`)) {
		t.Fatalf("healthz with no peers = %d (%s), want 503/down", code, body)
	}
}

// TestCoordinatorHealthzAndRing: the operational endpoints answer and the
// ring view adds up.
func TestCoordinatorHealthzAndRing(t *testing.T) {
	f := newShardFixture(t, 2, 6, 300)
	co, err := NewCoordinator(f.urls, CoordinatorOptions{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co)
	defer front.Close()

	code, body := getBody(t, front.URL+"/v1/cluster/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz = %d (%s)", code, body)
	}

	var ringView struct {
		Peers []struct {
			Peer        string  `json:"peer"`
			SampleShare float64 `json:"sample_share"`
		} `json:"peers"`
		VirtualNodes int `json:"virtual_nodes_per_peer"`
	}
	code, body = getBody(t, front.URL+"/v1/cluster/ring")
	if code != http.StatusOK {
		t.Fatalf("ring = %d", code)
	}
	if err := json.Unmarshal(body, &ringView); err != nil {
		t.Fatal(err)
	}
	if len(ringView.Peers) != 2 || ringView.VirtualNodes != DefaultVirtualNodes {
		t.Fatalf("ring view = %+v", ringView)
	}
	total := 0.0
	for _, p := range ringView.Peers {
		total += p.SampleShare
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("sample shares sum to %v, want 1", total)
	}
}
