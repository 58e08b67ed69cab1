package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"decos/internal/trace"
)

// collectTraces is a concurrency-safe TraceSink keeping each vehicle's
// stream.
type collectTraces struct {
	mu sync.Mutex
	by map[int][]byte
}

func (c *collectTraces) sink(vehicle int, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.by[vehicle] = bytes.Clone(blob)
}

// TestCampaignChunkedBitIdentical: a campaign executed in checkpoint/
// restore chunks (every vehicle torn down and rebuilt from its checkpoint
// mid-run, at a cadence that does not divide the horizon) produces the
// exact result and byte-identical per-vehicle traces of the unchunked
// campaign — the fleet-scale form of the restore determinism contract.
// Each of the two workers restores every chunk from one checkpoint buffer
// that the next chunk's checkpoint overwrites, so this also pins the
// restore's "caller may reuse the bytes" contract at campaign scale.
func TestCampaignChunkedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-vehicle campaign in -short mode")
	}
	base := Campaign{
		Vehicles:         6,
		Rounds:           300,
		Seed:             20050404,
		FaultFreeShare:   0.3,
		FaultsPerVehicle: 2,
		Workers:          2,
	}

	plain := &collectTraces{by: map[int][]byte{}}
	want := base.RunTraced(plain.sink)

	chunked := base
	chunked.ChunkRounds = 125 // three chunks: 125 + 125 + 50
	chunkedTraces := &collectTraces{by: map[int][]byte{}}
	got := chunked.RunTraced(chunkedTraces.sink)

	// Compare through JSON: the reports retain *faults.Activation ground
	// truth whose reconstructed role-handler closures never compare equal
	// pointer-wise; the serialized view is the semantic content.
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("chunked campaign result differs from unchunked:\nunchunked: %s\nchunked:   %s", wantJSON, gotJSON)
	}
	if len(plain.by) != len(chunkedTraces.by) {
		t.Fatalf("trace counts differ: %d vs %d vehicles", len(plain.by), len(chunkedTraces.by))
	}
	for v, tr := range plain.by {
		if !bytes.Equal(tr, chunkedTraces.by[v]) {
			t.Errorf("vehicle %d: chunked trace differs (%d vs %d bytes)",
				v, len(tr), len(chunkedTraces.by[v]))
		}
	}
}

// TestRunTracedBinaryMatchesNDJSON pins the campaign's binary trace
// recording to the NDJSON encoding: for every fault kind and for
// fault-free vehicles, unchunked and in checkpoint/restore chunks, each
// vehicle's blob is one well-framed binary stream (exactly one header,
// even across chunk engines), and transcoding it to NDJSON reproduces,
// byte for byte, what the same vehicle records through an NDJSON sink —
// so the binary recording drops no event and no field.
func TestRunTracedBinaryMatchesNDJSON(t *testing.T) {
	var campaigns []Campaign
	for _, k := range AllKinds() {
		campaigns = append(campaigns, Campaign{Mix: map[FaultKind]float64{k: 1}})
	}
	campaigns = append(campaigns, Campaign{FaultFreeShare: 1})
	for i, c := range campaigns {
		// Two vehicles on one worker: the second reuses the first's buffer.
		c.Vehicles, c.Rounds, c.Seed, c.Workers = 2, 400, 20050404+uint64(i), 1
		name := "fault-free"
		if c.FaultFreeShare == 0 {
			name = fmt.Sprint(FaultKind(i))
		}
		plans := c.plans()
		want := make(map[int][]byte, c.Vehicles)
		for v, p := range plans {
			var nd bytes.Buffer
			if err := c.runVehicle(context.Background(), new(worker), v, p, trace.NewNDJSONSink(&nd)); err != nil {
				t.Fatal(err)
			}
			want[v+1] = nd.Bytes()
		}
		for _, chunk := range []int64{0, 150} {
			c.ChunkRounds = chunk
			got := &collectTraces{by: map[int][]byte{}}
			c.RunTraced(got.sink)
			if len(got.by) != c.Vehicles {
				t.Fatalf("%s chunk=%d: %d traces, want %d", name, chunk, len(got.by), c.Vehicles)
			}
			for v, blob := range got.by {
				rd, _ := trace.OpenReader(bytes.NewReader(blob))
				var nd bytes.Buffer
				_, unencodable, err := trace.Transcode(rd, trace.NewNDJSONSink(&nd))
				if corrupt := rd.Corrupt() + unencodable; err != nil || corrupt != 0 {
					t.Fatalf("%s chunk=%d vehicle %d: transcode corrupt %d, err %v",
						name, chunk, v, corrupt, err)
				}
				if !bytes.Equal(nd.Bytes(), want[v]) {
					t.Errorf("%s chunk=%d vehicle %d: binary trace transcodes to %d NDJSON bytes, the NDJSON sink wrote %d",
						name, chunk, v, nd.Len(), len(want[v]))
				}
			}
		}
	}
}
