package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decos/internal/trace"
)

// testPeers spins up n ingest sinks that record which vehicles they saw
// and how many batches arrived.
type sinkPeer struct {
	srv     *httptest.Server
	mu      sync.Mutex
	bodies  [][]byte
	cts     []string
	batches atomic.Int64
}

func newSinkPeers(t *testing.T, n int) []*sinkPeer {
	t.Helper()
	peers := make([]*sinkPeer, n)
	for i := range peers {
		p := &sinkPeer{}
		p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			buf.ReadFrom(r.Body)
			p.mu.Lock()
			p.bodies = append(p.bodies, append([]byte(nil), buf.Bytes()...))
			p.cts = append(p.cts, r.Header.Get("Content-Type"))
			p.mu.Unlock()
			p.batches.Add(1)
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(p.srv.Close)
		peers[i] = p
	}
	return peers
}

// countEvents decodes a received batch body in whichever encoding it
// arrived and returns its event count.
func countEvents(t *testing.T, body []byte) int {
	t.Helper()
	rd, _ := trace.OpenReader(bytes.NewReader(body))
	n := 0
	if err := rd.ReadAll(func(trace.Event) { n++ }); err != nil {
		t.Fatal(err)
	}
	if rd.Corrupt() != 0 {
		t.Fatalf("batch carried %d corrupt records: %v", rd.Corrupt(), rd.CorruptErrors())
	}
	return n
}

func peerURLs(peers []*sinkPeer) []string {
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.srv.URL
	}
	return urls
}

// TestClientRoutesByRing: every vehicle's blob lands on exactly the peer
// the ring names, and nothing is lost.
func TestClientRoutesByRing(t *testing.T) {
	peers := newSinkPeers(t, 3)
	ring, err := NewRing(peerURLs(peers), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ring, ClientOptions{MaxBatchBytes: 1 << 20})

	byPeer := map[string]int{}
	for v := 1; v <= 200; v++ {
		blob := []byte(`{"t_us":1,"kind":"frame","vehicle":` + strconv.Itoa(v) + `}` + "\n")
		byPeer[ring.Owner(v)]++
		if err := c.AddTrace(context.Background(), v, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i, p := range peers {
		p.mu.Lock()
		var got int
		for _, b := range p.bodies {
			got += countEvents(t, b)
		}
		for _, ct := range p.cts {
			if ct != trace.ContentTypeBinary {
				t.Errorf("peer %d got Content-Type %q, want the binary default", i, ct)
			}
		}
		p.mu.Unlock()
		if want := byPeer[peers[i].srv.URL]; got != want {
			t.Errorf("peer %d received %d events, ring assigned %d", i, got, want)
		}
	}
	if st := c.Stats(); st.Events != 200 || st.DroppedBatches != 0 {
		t.Fatalf("stats = %+v, want 200 events, 0 drops", st)
	}
}

// TestClientBatching: the buffer flushes at the batch limit without
// waiting for Flush.
func TestClientBatching(t *testing.T) {
	peers := newSinkPeers(t, 1)
	ring, _ := NewRing(peerURLs(peers), 0)
	c := NewClient(ring, ClientOptions{MaxBatchBytes: 64})

	line := []byte(`{"t_us":1,"kind":"frame","vehicle":1}` + "\n")
	for i := 0; i < 20; i++ {
		if err := c.AddTrace(context.Background(), 1, line); err != nil {
			t.Fatal(err)
		}
	}
	if peers[0].batches.Load() == 0 {
		t.Fatal("no batch flushed before the explicit Flush despite exceeding MaxBatchBytes")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var total int
	peers[0].mu.Lock()
	for _, b := range peers[0].bodies {
		total += countEvents(t, b)
	}
	peers[0].mu.Unlock()
	if total != 20 {
		t.Fatalf("peer received %d events, want 20", total)
	}
}

// TestClientNDJSONModeByteCompat: EncodingNDJSON must behave exactly like
// the pre-binary client — NDJSON blobs pass through byte-for-byte under
// the NDJSON content type.
func TestClientNDJSONModeByteCompat(t *testing.T) {
	peers := newSinkPeers(t, 1)
	ring, _ := NewRing(peerURLs(peers), 0)
	c := NewClient(ring, ClientOptions{Encoding: EncodingNDJSON})

	var want bytes.Buffer
	for v := 1; v <= 5; v++ {
		blob := []byte(`{"t_us":1,"kind":"frame","vehicle":` + strconv.Itoa(v) + `}`) // no trailing newline
		want.Write(blob)
		want.WriteByte('\n')
		if err := c.AddTrace(context.Background(), v, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	peers[0].mu.Lock()
	defer peers[0].mu.Unlock()
	got := bytes.Join(peers[0].bodies, nil)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("NDJSON-mode bytes differ from passthrough:\ngot  %q\nwant %q", got, want.Bytes())
	}
	for _, ct := range peers[0].cts {
		if ct != trace.ContentTypeNDJSON {
			t.Fatalf("NDJSON-mode Content-Type = %q", ct)
		}
	}
}

// TestClientRetryAfterHint: a 429 with Retry-After must stretch the wait
// to the server's schedule (observed through the sleep hook), and the
// batch must eventually be delivered.
func TestClientRetryAfterHint(t *testing.T) {
	var rejections atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rejections.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	ring, _ := NewRing([]string{srv.URL}, 0)
	c := NewClient(ring, ClientOptions{Seed: 7})
	var waits []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return nil
	}

	if err := c.AddTrace(context.Background(), 1, []byte(`{"t_us":1,"kind":"frame","vehicle":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 2 {
		t.Fatalf("client slept %d times, want 2 (one per 429)", len(waits))
	}
	for i, d := range waits {
		// 2 s hint with ±25 % jitter.
		if d < 1500*time.Millisecond || d > 2500*time.Millisecond {
			t.Errorf("wait %d = %v, outside the jittered Retry-After window [1.5s, 2.5s]", i, d)
		}
	}
	st := c.Stats()
	if st.Rejected != 2 || st.Retries != 2 || st.Batches != 1 || st.DroppedBatches != 0 {
		t.Fatalf("stats = %+v, want 2 rejections, 2 retries, 1 batch, 0 drops", st)
	}
}

// TestClientBoundedRetry: a persistently failing peer exhausts MaxRetries
// and the batch is dropped with an error — the client never hangs.
func TestClientBoundedRetry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	ring, _ := NewRing([]string{srv.URL}, 0)
	c := NewClient(ring, ClientOptions{MaxRetries: 3, BaseBackoff: time.Millisecond, Seed: 7})
	var slept int
	c.sleep = func(ctx context.Context, d time.Duration) error { slept++; return nil }

	if err := c.AddTrace(context.Background(), 1, []byte(`{"t_us":1,"kind":"frame","vehicle":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	err := c.Flush(context.Background())
	if err == nil {
		t.Fatal("flush against a dead peer reported success")
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("error does not name the drop: %v", err)
	}
	if slept != 3 {
		t.Fatalf("client retried %d times, want 3", slept)
	}
	if st := c.Stats(); st.DroppedBatches != 1 {
		t.Fatalf("stats = %+v, want 1 dropped batch", st)
	}
}

// TestClientPermanentErrorNoRetry: 4xx other than 429 is not retried —
// including a 415 from a peer that refuses the client's wire encoding:
// the batch is dropped after exactly one attempt.
func TestClientPermanentErrorNoRetry(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusUnsupportedMediaType} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.WriteHeader(status)
			}))
			defer srv.Close()

			ring, _ := NewRing([]string{srv.URL}, 0)
			c := NewClient(ring, ClientOptions{Seed: 7})
			c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

			c.AddTrace(context.Background(), 1, []byte(`{"t_us":1,"kind":"frame","vehicle":1}`+"\n"))
			if err := c.Flush(context.Background()); err == nil {
				t.Fatalf("%d reported as success", status)
			}
			if hits.Load() != 1 {
				t.Fatalf("permanent error hit the peer %d times, want 1", hits.Load())
			}
			if st := c.Stats(); st.DroppedBatches != 1 || st.Retries != 0 {
				t.Fatalf("stats = %+v, want 1 dropped batch, 0 retries", st)
			}
		})
	}
}
