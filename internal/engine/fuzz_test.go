package engine_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/scenario"
	"decos/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_ckpt_v1.bin from the current encoder")

// The committed fixture pins the DCS-C v1 wire format: a checkpoint of
// the rich-manifest Fig. 10 run (trace attached, trust sampling every 2
// epochs) taken after goldenCkptRounds completed rounds.
const (
	goldenCkptFile   = "golden_ckpt_v1.bin"
	goldenCkptRounds = 80
)

// restoreGolden builds the golden run's system and restores checkpoint
// bytes into it in place — the path external checkpoint files
// (decos-whatif -ckpt) take.
func restoreGolden(data []byte) (*engine.Engine, error) {
	var tr bytes.Buffer
	sys := scenario.Fig10(20050404, diagnosis.Options{}, nil, engine.WithFaults(richManifest),
		engine.WithSink(trace.NewNDJSONSink(&tr), trace.Options{AllFrames: true, TrustEveryEpochs: 2}))
	if err := sys.Reset(engine.WithFaults(richManifest), engine.WithRestore(data)); err != nil {
		return nil, err
	}
	return sys, nil
}

func generateGoldenCkpt(tb testing.TB) []byte {
	var tr bytes.Buffer
	sys := fig10Ckpt(&tr)
	sys.Cluster.RunRounds(context.Background(), goldenCkptRounds)
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpointV1 holds the checkpoint wire format stable: the
// committed v1 fixture must still restore, and re-encoding the restored
// engine must reproduce the fixture byte for byte. A deliberate format
// change regenerates it with `go test ./internal/engine/ -run Golden
// -update-golden` — and is a DESIGN §12 version-bump conversation, not a
// routine refresh, because persisted fleet checkpoints outlive releases.
func TestGoldenCheckpointV1(t *testing.T) {
	path := filepath.Join("testdata", goldenCkptFile)
	if *updateGolden {
		if err := os.WriteFile(path, generateGoldenCkpt(t), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update-golden): %v", err)
	}
	if got := generateGoldenCkpt(t); !bytes.Equal(got, want) {
		t.Fatalf("current encoder produces %d bytes differing from the committed v1 fixture (%d bytes) — wire format drift",
			len(got), len(want))
	}
	sys, err := restoreGolden(want)
	if err != nil {
		t.Fatalf("restoring the v1 fixture: %v", err)
	}
	if v := sys.StateVersion(); v != goldenCkptRounds {
		t.Fatalf("restored StateVersion = %d, want %d", v, goldenCkptRounds)
	}
	var re bytes.Buffer
	if err := sys.Checkpoint(&re); err != nil {
		t.Fatalf("re-encoding restored engine: %v", err)
	}
	if !bytes.Equal(re.Bytes(), want) {
		t.Fatal("restore → re-encode of the v1 fixture is not the identity")
	}
}

// FuzzCheckpointReader throws arbitrary bytes at the restore path and
// holds it to its contract: a corrupt, truncated or mismatched
// checkpoint surfaces as an error — never a panic, never a half-restored
// engine. Bytes that do pass every validation must yield an engine whose
// own re-encoding succeeds. The corpus seeds at the interesting
// boundaries: the golden fixture, its truncations, bit flips in the
// header and body, plain garbage, the fixture with a list length
// claiming far more elements than its section carries, the fixture with
// an OBD span for a channel the diagnoser does not watch, with keys and
// enums out of range (TestRestoreRejectsUntrackedKeys), and with fault
// hooks and timers the restored bus and clock cannot re-arm. A rejection
// must come from a validation, never from the restore's panic backstop.
func FuzzCheckpointReader(f *testing.F) {
	golden := generateGoldenCkpt(f)
	f.Add(golden)
	f.Add([]byte{})
	f.Add(golden[:1])
	f.Add(golden[:16])
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:len(golden)-1])
	for _, i := range []int{0, 8, 24, len(golden) / 3, len(golden) / 2, len(golden) - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("not a checkpoint"))
	f.Add(corruptHistoryStream(f))
	f.Add(obdUnknownChannelStream(f))
	for _, s := range untrackedKeyStreams(f) {
		f.Add(s.stream)
	}
	hooks, timers := unarmableFaultStreams(f)
	f.Add(hooks)
	f.Add(timers)

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := restoreGolden(data)
		if err != nil {
			// Every validation rejects in its own section; the panic
			// backstop is for defects, not for input it should check.
			if strings.HasPrefix(err.Error(), "engine: restore: corrupt checkpoint:") {
				t.Fatalf("rejected by the panic backstop, not a validation: %v", err)
			}
			return
		}
		// Every validation passed: the engine must be whole enough to
		// checkpoint itself again.
		if err := sys.Checkpoint(io.Discard); err != nil {
			t.Fatalf("restored engine cannot re-checkpoint: %v", err)
		}
	})
}
