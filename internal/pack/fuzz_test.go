package pack

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

// FuzzPackManifest throws arbitrary bytes at the manifest loader and
// holds it to its contract: never panic, never accept a document that
// fails validation, address every rejection as a *pack.Error carrying
// the source name, and accept only single-vehicle packs whose engine
// starts without error and runs. The corpus seeds with the shipped pack
// library plus JSON boundary fragments so the fuzzer starts at the
// interesting shapes instead of the empty string.
func FuzzPackManifest(f *testing.F) {
	if dir, ok := FindPacksDir("."); ok {
		files, err := Discover(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(minimalJSON))
	f.Add([]byte(richJSON))
	f.Add([]byte{})
	f.Add([]byte(`{"pack": 1, "topology": {"kind": "fig10"`))
	f.Add([]byte(`{"pack": 1, "name": "x", "seed": 18446744073709551615}`))
	f.Add([]byte(`{"topology": {"kind": "custom", "components": [{"id": 0, "name": "a"}]}}`))
	f.Add([]byte(`{"pack": 1, "name": "x", "name": "y"}`))
	f.Add([]byte(minimalJSON + ` {"pack": 1}`))
	f.Add([]byte(`{"faults": [{"kind": "quartz", "rate": 1e309}]}`))
	f.Add([]byte(`{"pack": 1, "seed": 18446744073709551616}`))
	f.Add([]byte(`{"environment": ` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`))
	// Frame-budget and channel-range boundaries.
	for _, doc := range []string{customDoc(200, 1), customDoc(192, 1), customDoc(40, 65536), customDoc(40, 60000),
		`{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10", "slot_bytes": 100}}`,
		`{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "bohrbug", "job": "A/A1", "channel": 65537, "threshold": 50, "value": 1}]}`} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const source = "fuzz.json"
		m, err := Parse(data, source)
		if err != nil {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is %T, want *pack.Error: %v", err, err)
			}
			if !strings.Contains(err.Error(), source) {
				t.Fatalf("rejection does not name the source: %v", err)
			}
			return
		}
		// Accepted documents are fully validated: re-validating the
		// decoded manifest must be a no-op, and the topology must have
		// resolved to something an engine can be built from.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails re-validation: %v", err)
		}
		if m.Topology.Nodes < 1 || m.Topology.SlotLenUS < 1 || m.Topology.SlotBytes < 1 {
			t.Fatalf("accepted manifest has unresolved topology: %+v", m.Topology)
		}
		// Validation is the gate to the simulator: what it accepts must
		// build, start and run.
		if m.Campaign != nil {
			return
		}
		e, err := m.Engine()
		if err != nil {
			t.Fatalf("accepted manifest does not start an engine: %v", err)
		}
		e.Cluster.RunRounds(context.Background(), min(m.Rounds, 3))
	})
}
