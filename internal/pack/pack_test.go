package pack

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

const minimalJSON = `{
  "pack": 1,
  "name": "minimal",
  "seed": 7,
  "rounds": 100,
  "topology": {"kind": "fig10"}
}`

// richJSON exercises every top-level section a single-vehicle pack uses;
// the fuzz corpus seeds from it.
const richJSON = `{
  "pack": 1,
  "name": "rich",
  "description": "round-trip fixture",
  "seed": 20050404,
  "rounds": 2000,
  "topology": {"kind": "fig10"},
  "diagnosis": {"epoch_rounds": 16, "alpha_k": 3.5},
  "faults": [
    {"kind": "quartz", "component": 1, "at_ms": 200, "drift_ppm": 90000},
    {"kind": "sensor-stuck", "job": "A/A1", "at_ms": 300, "value": 42.5}
  ],
  "environment": [
    {"profile": "vibration", "from_ms": 400, "to_ms": 900, "period_ms": 250,
     "intensity": 0.5, "components": [0, 2]}
  ],
  "expect": {
    "max_false_alarms": 0,
    "verdicts": [
      {"fru": "component[1]", "class": "component-internal",
       "action": "replace-component", "classifier": "decos"}
    ]
  }
}`

func TestParseMinimal(t *testing.T) {
	m, err := Parse([]byte(minimalJSON), "minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "minimal" || m.Seed != 7 || m.Rounds != 100 {
		t.Fatalf("header fields: %+v", m)
	}
	// Validation resolves the fig10 topology to its fixed dimensions.
	top := m.Topology
	if top.Nodes != 4 || top.SlotLenUS != 250 || top.SlotBytes != 256 || top.DiagNode != 3 {
		t.Fatalf("fig10 defaults not resolved: %+v", top)
	}
	if top.Clocks != DefaultClocks() {
		t.Fatalf("clock defaults not resolved: %+v", top.Clocks)
	}
	// Expectation defaults: unchecked bounds, DECOS gated at 1.0.
	e := m.Expect
	if e.MaxFalseAlarms != -1 || e.MaxNFFRatio != -1 || e.MinScore != 1 || e.MinScoreOBD != 0 {
		t.Fatalf("expect defaults: %+v", e)
	}
}

// TestGoConstructedManifestValidates pins that a manifest built in Go
// (no decoder pass) resolves the same defaults validation gives decoded
// ones — in particular the clock ensemble.
func TestGoConstructedManifestValidates(t *testing.T) {
	// DiagNode -1 means "default" — the decoder's sentinel for an unset
	// field, resolved by validation to the last grid node.
	m := &Manifest{Pack: Version, Name: "in-memory", Seed: 1, Rounds: 10,
		Topology: Topology{Kind: "grid", Nodes: 6, DiagNode: -1}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Topology.Clocks != DefaultClocks() {
		t.Fatalf("clocks not defaulted: %+v", m.Topology.Clocks)
	}
	if m.Topology.DiagNode != 5 {
		t.Fatalf("grid diag node = %d, want 5", m.Topology.DiagNode)
	}
}

// TestParseErrors holds the strict-validation contract: malformed input
// is rejected with a *pack.Error naming the source, the offending field
// path and — for decode-level failures — the source line.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		doc   string
		wants []string
	}{
		{"bad version", "v.json", `{"pack": 99, "name": "x", "rounds": 1, "topology": {"kind": "fig10"}}`,
			[]string{"v.json:", "pack:", "unsupported schema version 99"}},
		{"missing topology kind", "k.json", `{"pack": 1, "name": "x", "rounds": 1}`,
			[]string{"topology.kind:", "required"}},
		{"unknown top-level field", "u.json", "{\n  \"pack\": 1,\n  \"name\": \"x\",\n  \"rounds\": 1,\n  \"bogus\": 3,\n  \"topology\": {\"kind\": \"fig10\"}\n}\n",
			[]string{"u.json:5:", "bogus", "unknown field"}},
		{"wrong field type", "t.json", `{"pack": 1, "name": "x", "rounds": "many", "topology": {"kind": "fig10"}}`,
			[]string{"t.json:1:", "rounds"}},
		{"bad slug", "s.json", `{"pack": 1, "name": "Not A Slug", "rounds": 1, "topology": {"kind": "fig10"}}`,
			[]string{"name:", "slug"}},
		{"rounds out of range", "r.json", `{"pack": 1, "name": "x", "rounds": 0, "topology": {"kind": "fig10"}}`,
			[]string{"rounds:", "must be in [1"}},
		{"unknown fault kind", "f.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"faults": [{"kind": "gremlin"}]}`,
			[]string{"faults[0].kind", "gremlin"}},
		{"heisenbug rate out of range", "h.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"faults": [{"kind": "heisenbug", "job": "A/A1", "channel": 1, "rate": 1.5}]}`,
			[]string{"faults[0].rate"}},
		{"dangling job reference", "j.json", `{"pack": 1, "name": "x", "rounds": 100, "topology": {"kind": "fig10"},
			"faults": [{"kind": "job-crash", "job": "A/Z9", "at_ms": 10}]}`,
			[]string{"faults[0].job", "A/Z9"}},
		{"unknown env profile", "e.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"environment": [{"profile": "monsoon", "from_ms": 1, "to_ms": 2, "period_ms": 1, "intensity": 0.5}]}`,
			[]string{"environment[0].profile", "monsoon"}},
		{"unknown campaign kind", "c.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"campaign": {"vehicles": 2, "mix": {"gremlin": 1.0}}}`,
			[]string{"campaign.mix.gremlin", "unknown campaign fault kind"}},
		{"campaign with faults", "cf.json", `{"pack": 1, "name": "x", "rounds": 100, "topology": {"kind": "fig10"},
			"campaign": {"vehicles": 2},
			"faults": [{"kind": "seu", "component": 1, "at_ms": 5}]}`,
			[]string{"campaign:", "not allowed"}},
		{"verdict FRU out of range", "vf.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"expect": {"verdicts": [{"fru": "component[9]", "class": "component-internal"}]}}`,
			[]string{"expect.verdicts[0].fru", "out of range"}},
		{"verdict class unknown", "vc.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"expect": {"verdicts": [{"fru": "component[1]", "class": "phase-of-moon"}]}}`,
			[]string{"expect.verdicts[0].class"}},
		// A key = value document (the INI-like syntax some config formats
		// use) is not a manifest, whatever its file is called.
		{"key-value syntax", "x.conf", "pack = 1\nname = \"x\"\n[topology]\nkind = \"fig10\"\n",
			[]string{"x.conf:1:", "syntax error"}},
		{"json syntax", "x.json", `{"pack": }`, []string{"x.json:"}},
		{"nesting too deep", "d.json", `{"environment": ` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
			[]string{"d.json:1:", "nesting deeper than"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc), tc.src)
			if err == nil {
				t.Fatal("parse accepted malformed manifest")
			}
			var pe *Error
			if !errors.As(err, &pe) || pe.Source != tc.src {
				t.Errorf("error %T %v is not a *pack.Error for %s", err, err, tc.src)
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestErrorType pins that load failures surface as *pack.Error so
// callers can address source/line/field programmatically.
func TestErrorType(t *testing.T) {
	_, err := Parse([]byte(`{"pack": 99, "name": "x", "rounds": 1, "topology": {"kind": "fig10"}}`), "e.json")
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *pack.Error", err)
	}
	if pe.Source != "e.json" || pe.Field != "pack" {
		t.Fatalf("error fields: %+v", pe)
	}
}

// TestShippedPacksAreJSON pins that packs/ holds manifests only: Discover
// lists .json files, so any other file there would be silently skipped.
func TestShippedPacksAreJSON(t *testing.T) {
	dir, ok := FindPacksDir(".")
	if !ok {
		t.Fatal("packs/ not found")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("packs/%s: not a .json manifest, Discover would skip it", e.Name())
		}
	}
}

// TestEnvironmentExpansionDeterministic pins the contract that keeps
// packs replayable: an environment profile expands to an arithmetic —
// not randomized — series of activations, so two expansions of the same
// profile are identical and bounded by MaxEnvEvents.
func TestEnvironmentExpansionDeterministic(t *testing.T) {
	m, err := Parse([]byte(`{
  "pack": 1,
  "name": "env",
  "seed": 1,
  "rounds": 3000,
  "topology": {"kind": "fig10"},
  "environment": [
    {"profile": "thermal-cycling", "from_ms": 100, "to_ms": 2000,
     "period_ms": 150, "intensity": 0.7}
  ]
}`), "env.json")
	if err != nil {
		t.Fatal(err)
	}
	a := m.Environment[0].expand(&m.Topology)
	b := m.Environment[0].expand(&m.Topology)
	if len(a) == 0 {
		t.Fatal("profile expanded to no activations")
	}
	if len(a) > MaxEnvEvents {
		t.Fatalf("%d activations exceed MaxEnvEvents=%d", len(a), MaxEnvEvents)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same profile differ")
	}
	for i, f := range a {
		if !faultKinds[f.Kind] {
			t.Fatalf("expansion[%d] has unknown kind %q", i, f.Kind)
		}
	}
}

// TestExportedTopologiesValidate pins that the Topology values the
// scenario constructors build from are exactly what a manifest with the
// same kind resolves to.
func TestExportedTopologiesValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		top  Topology
	}{
		{"fig10", Fig10Topology()},
		{"grid", GridTopology(8)},
	} {
		m := &Manifest{Pack: Version, Name: tc.name, Seed: 1, Rounds: 10, Topology: tc.top}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(m.Topology, tc.top) {
			t.Errorf("%s: validation changed the resolved topology:\n got %+v\nwant %+v", tc.name, m.Topology, tc.top)
		}
	}
}
