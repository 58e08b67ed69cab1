package warranty

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestWarmStandbyKillRestart is the fleetd -state-dir contract: a
// collector killed after persisting its state and restarted from the
// file — with a different shard count, even — continues ingesting as if
// it never died. The final summary and snapshot export must be
// byte-identical to an uninterrupted collector's.
func TestWarmStandbyKillRestart(t *testing.T) {
	blobs := campaignBlobs(t, 10, 600)
	path := filepath.Join(t.TempDir(), StateFileName)

	// Uninterrupted reference: one collector sees every vehicle.
	ref := NewCollector(0)
	for v := 1; v <= len(blobs); v++ {
		if _, _, err := ref.IngestStream(bytes.NewReader(blobs[v]), 0); err != nil {
			t.Fatal(err)
		}
	}

	// First incarnation ingests half the fleet, then "dies" gracefully:
	// exactly what fleetd does on SIGTERM.
	first := NewCollector(4)
	for v := 1; v <= len(blobs)/2; v++ {
		if _, _, err := first.IngestStream(bytes.NewReader(blobs[v]), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveState(path, first.Snapshot()); err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	// Second incarnation boots warm — different shard count on purpose:
	// the state is sharding-independent.
	snap, err := LoadState(path)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	second := NewCollector(7)
	if err := second.LoadSnapshot(snap); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if second.Events() != first.Events() || second.Vehicles() != first.Vehicles() {
		t.Fatalf("restored %d events / %d vehicles, want %d / %d",
			second.Events(), second.Vehicles(), first.Events(), first.Vehicles())
	}
	for v := len(blobs)/2 + 1; v <= len(blobs); v++ {
		if _, _, err := second.IngestStream(bytes.NewReader(blobs[v]), 0); err != nil {
			t.Fatal(err)
		}
	}

	wantSummary := summaryJSON(t, ref.Summary(0))
	gotSummary := summaryJSON(t, second.Summary(0))
	if !bytes.Equal(gotSummary, wantSummary) {
		t.Error("summary after kill-and-restart differs from uninterrupted collector")
	}
	want, _ := json.Marshal(ref.Snapshot())
	got, _ := json.Marshal(second.Snapshot())
	if !bytes.Equal(got, want) {
		t.Error("snapshot export after kill-and-restart differs from uninterrupted collector")
	}
	if second.Frames() != ref.Frames() {
		t.Errorf("frames = %d after restart, want %d", second.Frames(), ref.Frames())
	}
}

// TestLoadSnapshotRefuses: version skew, non-empty targets and unordered
// vehicles are boot failures, not silent corruption.
func TestLoadSnapshotRefuses(t *testing.T) {
	blobs := campaignBlobs(t, 3, 300)
	col := NewCollector(0)
	for _, b := range blobs {
		if _, _, err := col.IngestStream(bytes.NewReader(b), 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()

	bad := *snap
	bad.Version = SnapshotVersion + 1
	if err := NewCollector(0).LoadSnapshot(&bad); err == nil {
		t.Error("version skew accepted")
	}
	if err := col.LoadSnapshot(snap); err == nil {
		t.Error("load into a non-empty collector accepted")
	}
	if len(snap.Vehicles) >= 2 {
		disordered := *snap
		disordered.Vehicles = slices.Clone(snap.Vehicles)
		disordered.Vehicles[0], disordered.Vehicles[1] = disordered.Vehicles[1], disordered.Vehicles[0]
		if err := NewCollector(0).LoadSnapshot(&disordered); err == nil {
			t.Error("unordered vehicles accepted")
		}
	}
}

// TestStateFileAtomicAndMissing: LoadState distinguishes a cold start
// (os.IsNotExist) from a corrupt file, and SaveState replaces the target
// atomically without leaving temp files behind.
func TestStateFileAtomicAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StateFileName)

	if _, err := LoadState(path); !os.IsNotExist(err) {
		t.Errorf("missing state: err = %v, want os.IsNotExist", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(path); err == nil || os.IsNotExist(err) {
		t.Errorf("corrupt state: err = %v, want decode failure", err)
	}

	col := NewCollector(0)
	for _, b := range campaignBlobs(t, 2, 300) {
		if _, _, err := col.IngestStream(bytes.NewReader(b), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveState(path, col.Snapshot()); err != nil {
		t.Fatalf("SaveState over corrupt file: %v", err)
	}
	if _, err := LoadState(path); err != nil {
		t.Fatalf("LoadState after save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("state dir has %d entries after save, want just the state file", len(entries))
	}
}

// TestStateFileFixtureLoads boots a state file written before snapshots
// dropped their "tally" member (testdata/state_v1_tally.json: the
// campaignBlobs(8, 600) corpus, saved by SaveState). A running daemon's
// file must still load: its Summary equals a collector ingesting the same
// traces today, and its re-export is the file minus the "tally" member,
// byte for byte.
func TestStateFileFixtureLoads(t *testing.T) {
	const path = "testdata/state_v1_tally.json"
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadState(path)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	loaded := NewCollector(0)
	if err := loaded.LoadSnapshot(snap); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}

	blobs := campaignBlobs(t, 8, 600)
	fresh := NewCollector(0)
	for v := 1; v <= len(blobs); v++ {
		if _, _, err := fresh.IngestStream(bytes.NewReader(blobs[v]), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := summaryJSON(t, loaded.Summary(0)), summaryJSON(t, fresh.Summary(0)); !bytes.Equal(got, want) {
		t.Errorf("fixture summary differs from a fresh ingest:\ngot  %s\nwant %s", got, want)
	}

	var old struct {
		Tally json.RawMessage `json:"tally"`
	}
	if err := json.Unmarshal(fixture, &old); err != nil || len(old.Tally) == 0 {
		t.Fatalf("fixture has no tally member (err %v)", err)
	}
	want := bytes.Replace(fixture, []byte(`"tally":`+string(old.Tally)+`,`), nil, 1)
	got, err := json.Marshal(loaded.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-exported snapshot is not the fixture minus its tally:\ngot  %s\nwant %s", got, want)
	}
}
