package pack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"decos/internal/sim"
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
	// Expectation defaults: unchecked bounds, DECOS gated at 1.0.
	e := m.Expect
	if e.MaxFalseAlarms != -1 || e.MaxNFFRatio != -1 || e.MinScore != 1 || e.MinScoreOBD != 0 {
		t.Fatalf("expect defaults: %+v", e)
	}
}

// TestGoConstructedManifestValidates pins that a manifest built in Go
// (no decoder pass) resolves the same defaults validation gives decoded
// ones — in particular the grid's diagnostic node.
func TestGoConstructedManifestValidates(t *testing.T) {
	// DiagNode -1 means "default" — the decoder's sentinel for an unset
	// field, resolved by validation to the last grid node.
	m := &Manifest{Pack: Version, Name: "in-memory", Seed: 1, Rounds: 10,
		Topology: Topology{Kind: "grid", Nodes: 6, DiagNode: -1}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
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
		{"unknown classifier", "cl.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"}, "classifier": "Bayes"}`,
			[]string{"classifier:", `unknown classifier "Bayes" (known: decos, obd, bayes)`}},
		{"verdict classifier unknown", "vcl.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"expect": {"verdicts": [{"fru": "component[1]", "class": "component-internal", "classifier": "bogus"}]}}`,
			[]string{"expect.verdicts[0].classifier:", `unknown classifier "bogus"`}},
		{"verdict class unknown", "vc.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"expect": {"verdicts": [{"fru": "component[1]", "class": "phase-of-moon"}]}}`,
			[]string{"expect.verdicts[0].class"}},
		// A key = value document (the INI-like syntax some config formats
		// use) is not a manifest, whatever its file is called.
		{"key-value syntax", "x.conf", "pack = 1\nname = \"x\"\n[topology]\nkind = \"fig10\"\n",
			[]string{"x.conf:1:", "syntax error"}},
		{"json syntax", "x.json", `{"pack": }`, []string{"x.json:"}},
		// The decoder recurses no deeper than the schema: a nested array
		// where an object belongs is a type error at its first level.
		{"nesting too deep", "d.json", `{"environment": ` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
			[]string{"d.json:1:", "environment[0]: expected an object, got array"}},
		{"duplicate nested key", "dk.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"campaign": {"vehicles": 2, "mix": {"emi": 1, "emi": 2}}}`,
			[]string{"dk.json:2:", "campaign.mix.emi: duplicate key"}},
		{"invalid number", "n.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"faults": [{"kind": "quartz", "drift_ppm": 1e309}]}`,
			[]string{"n.json:2:", `faults[0].drift_ppm: invalid number "1e309"`}},
		// The fault-model thresholds and the clock ensemble are fixed: a
		// pack that tries to set them names the member it cannot have.
		{"diagnosis section", "ak.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10"},
			"diagnosis": {"alpha_k": 3.5}}`,
			[]string{"ak.json:2:", "diagnosis: unknown field"}},
		{"clock ensemble", "ct.json", `{"pack": 1, "name": "x", "rounds": 1,
			"topology": {"kind": "fig10", "clocks": {"tolerated": -4}}}`,
			[]string{"ct.json:2:", "topology.clocks: unknown field"}},
		// Episode rates so high that episodes never leave the current
		// instant would stall the run.
		{"intermittent rate too high", "ir.json", `{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "intermittent", "component": 1, "rate_per_hour": 1e300}]}`,
			[]string{"faults[0].rate_per_hour:", "must be ≤"}},
		{"wearout rate too high", "wr.json", `{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "wearout", "component": 1, "tau_ms": 1, "base_rate_per_hour": 1e6, "max_factor": 10}]}`,
			[]string{"faults[0].base_rate_per_hour:", "exceeds"}},
		// Fault targets the injector would dereference or look up.
		{"emi burst on missing component", "eb.json", `{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "emi-burst", "component": 9, "radius": 1, "bits": 1}]}`,
			[]string{"faults[0].component:", "must be in [0, 4)"}},
		{"queue on unsubscribed channel", "mq.json", `{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "misconfig-queue", "job": "A/A1", "channel": 1, "queue_cap": 2}]}`,
			[]string{"faults[0].channel:", "does not subscribe channel 1"}},
		// The frame layout: each node's segments plus the 64-byte
		// diagnostic segment must fit slot_bytes (256 unless set).
		{"endpoint overflows the slot", "fo.json", customDoc(200, 1),
			[]string{"topology.dass[0].networks[0].endpoints[0].alloc_bytes:", "node 0 needs 264 bytes", "slot_bytes is 256"}},
		{"endpoint fills the slot", "ff.json", customDoc(192, 1), nil},
		{"fig10 slot too small", "fs.json", `{"pack": 1, "name": "x", "rounds": 1, "topology": {"kind": "fig10", "slot_bytes": 100}}`,
			[]string{"topology.slot_bytes:", "node 0 needs 124 bytes", "slot_bytes is 100"}},
		// Channel ids are vnet.ChannelIDs below the diagnostic network's.
		{"channel past uint16", "cw.json", customDoc(40, 65536),
			[]string{"topology.dass[0].jobs[0].produce[0].channel:", "channel must be in [1, 60000), got 65536"}},
		{"out channel past uint16", "co.json", strings.Replace(customDoc(40, 1), `"out": 1`, `"out": 65536`, 1),
			[]string{"topology.dass[0].jobs[0].out:", "got 65536"}},
		{"diagnostic channel", "cd60.json", customDoc(40, 60000),
			[]string{"topology.dass[0].jobs[0].produce[0].channel:", "got 60000"}},
		{"fault channel wraps", "fw.json", `{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "fig10"},
			"faults": [{"kind": "bohrbug", "job": "A/A1", "channel": 65537, "threshold": 50, "value": 1}]}`,
			[]string{"faults[0].channel:", "got 65537"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Parse([]byte(tc.doc), tc.src)
			if tc.wants == nil {
				// A boundary row: accepted, and the engine starts.
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Engine(); err != nil {
					t.Fatal(err)
				}
				return
			}
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

// customDoc is a one-component custom pack whose sensor publishes
// channel ch in a segment of alloc bytes.
func customDoc(alloc, ch int) string {
	return fmt.Sprintf(`{"pack": 1, "name": "x", "rounds": 10, "topology": {"kind": "custom",
  "components": [{"id": 0, "name": "ecu"}], "signals": [{"name": "s", "period_ms": 100}],
  "dass": [{"name": "D", "networks": [{"name": "D.tt", "endpoints": [{"node": 0, "alloc_bytes": %d}]}],
    "jobs": [{"name": "sense", "component": 0, "type": "sensor", "signal": "s", "out": %d,
      "produce": [{"network": "D.tt", "channel": %[2]d, "name": "s"}]}]}]}}`, alloc, ch)
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

// TestParseSeedFullRange pins that seeds cover uint64, as they do on the
// decos-sim command line, not just int64.
func TestParseSeedFullRange(t *testing.T) {
	doc := strings.Replace(minimalJSON, `"seed": 7`, `"seed": 18446744073709551615`, 1)
	m, err := Parse([]byte(doc), "seed.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != math.MaxUint64 {
		t.Fatalf("seed = %d, want %d", m.Seed, uint64(math.MaxUint64))
	}
}

// packTree decodes a shipped pack into a generic JSON tree for editing.
func packTree(t *testing.T, name string) map[string]any {
	t.Helper()
	dir, ok := FindPacksDir(".")
	if !ok {
		t.Fatal("packs/ not found")
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree map[string]any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// parseTree re-encodes an edited tree and parses it.
func parseTree(t *testing.T, tree any) (*Manifest, error) {
	t.Helper()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return Parse(data, "edit.json")
}

// wantField asserts err is a *pack.Error addressed to exactly field.
func wantField(t *testing.T, err error, field string) {
	t.Helper()
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("got %v (%T), want a *pack.Error at %s", err, err, field)
	}
	if pe.Field != field {
		t.Fatalf("error %q is addressed to %q, want %q", err, pe.Field, field)
	}
}

// TestCustomChannelWiring holds the custom-topology rules that keep a
// pack from building a cluster that panics: a job sends only on
// channels it produces, reads only channels it subscribes, subscribes
// only channels declared by itself or an earlier job, produces each
// channel once on a network its component is attached to, and each
// network has one endpoint per node.
func TestCustomChannelWiring(t *testing.T) {
	const das = "topology.dass[0]"
	cases := []struct {
		name  string
		edit  func(net map[string]any, jobs []any)
		field string
	}{
		{"out not produced", func(_ map[string]any, jobs []any) {
			job(jobs, 0)["produce"] = []any{}
		}, das + ".jobs[0].out"},
		{"out on another channel", func(_ map[string]any, jobs []any) {
			job(jobs, 0)["out"] = 9
		}, das + ".jobs[0].out"},
		{"in not subscribed", func(_ map[string]any, jobs []any) {
			job(jobs, 1)["in"] = 9
		}, das + ".jobs[1].in"},
		{"watch not subscribed", func(_ map[string]any, jobs []any) {
			display := job(jobs, 2)
			delete(display, "in")
			delete(display, "actuator")
			display["type"], display["watch"] = "observer", 9
		}, das + ".jobs[2].watch"},
		{"voter input not subscribed", func(_ map[string]any, jobs []any) {
			display := job(jobs, 2)
			delete(display, "in")
			delete(display, "actuator")
			display["type"], display["ins"], display["out"] = "voter", []any{2, 2, 9}, 3
			display["produce"] = []any{map[string]any{"network": "T.tt", "channel": 3, "name": "voted"}}
		}, das + ".jobs[2].ins[2]"},
		{"subscribed before produced", func(_ map[string]any, jobs []any) {
			jobs[0], jobs[1] = jobs[1], jobs[0]
		}, das + ".jobs[0].subscribe[0].channel"},
		{"channel produced twice", func(_ map[string]any, jobs []any) {
			job(jobs, 1)["produce"].([]any)[0].(map[string]any)["channel"] = 1
		}, das + ".jobs[1].produce[0].channel"},
		{"producer without endpoint", func(net map[string]any, _ []any) {
			eps := net["endpoints"].([]any)
			net["endpoints"] = []any{eps[0], eps[2]}
		}, das + ".jobs[1].produce[0].network"},
		{"duplicate endpoint", func(net map[string]any, _ []any) {
			net["endpoints"].([]any)[1].(map[string]any)["node"] = 0
		}, das + ".networks[0].endpoints[1].node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := packTree(t, "custom-telemetry-rig.json")
			d := tree["topology"].(map[string]any)["dass"].([]any)[0].(map[string]any)
			tc.edit(d["networks"].([]any)[0].(map[string]any), d["jobs"].([]any))
			_, err := parseTree(t, tree)
			wantField(t, err, tc.field)
		})
	}
}

func job(jobs []any, i int) map[string]any { return jobs[i].(map[string]any) }

// TestMisconfigQueueTargets pins that misconfig-queue targets on the
// generated fig10 and grid graphs validate and build: a misdimensioned
// queue on each listed subscription is accepted and applies at engine
// start.
func TestMisconfigQueueTargets(t *testing.T) {
	for _, tc := range []struct {
		topology, job string
		channel       int
	}{
		{`{"kind": "fig10"}`, "A/A2", 1}, {`{"kind": "fig10"}`, "A/A3", 2},
		{`{"kind": "fig10"}`, "C/C2", 10}, {`{"kind": "fig10"}`, "S/V", 23},
		{`{"kind": "grid", "nodes": 4}`, "D2/consume", 3},
	} {
		doc := fmt.Sprintf(`{"pack": 1, "name": "x", "rounds": 10, "topology": %s,
			"faults": [{"kind": "misconfig-queue", "job": %q, "channel": %d, "queue_cap": 1}]}`, tc.topology, tc.job, tc.channel)
		m, err := Parse([]byte(doc), "q.json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Engine(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestMutantsAddressed holds the decoder's addressing contract
// over the whole shipped library: every scalar and object value given
// JSON types its field rejects, and every object given an unknown key, is
// rejected as a *pack.Error addressed to exactly the changed path.
func TestManifestMutantsAddressed(t *testing.T) {
	dir, ok := FindPacksDir(".")
	if !ok {
		t.Fatal("packs/ not found")
	}
	files, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, path := range files {
		tree := packTree(t, filepath.Base(path))
		mutate(tree, "", func(field string, undo func()) {
			cases++
			_, err := parseTree(t, tree)
			undo()
			var pe *Error
			if !errors.As(err, &pe) || pe.Field != field {
				t.Errorf("%s: mutant at %s: got %v, want a *pack.Error at that field", filepath.Base(path), field, err)
			}
		})
	}
	if cases < 1000 {
		t.Fatalf("only %d mutants generated", cases)
	}
}

// mutate calls check once per mutant of the tree under path: each
// scalar or object value swapped for values of other JSON types, and
// each object given an unknown key. check must call undo before
// returning, restoring the tree.
func mutate(v any, path string, check func(field string, undo func())) {
	join := func(key string) string {
		if path == "" {
			return key
		}
		return path + "." + key
	}
	switch n := v.(type) {
	case map[string]any:
		n["zz_unknown"] = 1
		check(join("zz_unknown"), func() { delete(n, "zz_unknown") })
		for key, child := range n {
			swap(child, func(x any) { n[key] = x }, join(key), check)
			mutate(child, join(key), check)
		}
	case []any:
		for i, child := range n {
			elem := fmt.Sprintf("%s[%d]", path, i)
			swap(child, func(x any) { n[i] = x }, elem, check)
			mutate(child, elem, check)
		}
	}
}

// swap replaces a scalar or object value with each value of another
// JSON type. A number is never swapped for an integer (float fields take
// integer literals), so every swap is one its field rejects.
func swap(v any, set func(any), field string, check func(string, func())) {
	if _, isArray := v.([]any); isArray {
		return
	}
	for _, other := range []any{"x", json.Number("1"), true, nil} {
		if reflect.TypeOf(other) != reflect.TypeOf(v) {
			set(other)
			check(field, func() { set(v) })
		}
	}
}

// TestMSToTimeRoundsToMicrosecond pins the manifest's millisecond fields
// to the nearest µs: a decimal millisecond count is not exact in binary,
// and truncation would drop a µs from values like 1.001.
func TestMSToTimeRoundsToMicrosecond(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		want sim.Time
	}{
		{0, 0},
		{1.001, 1001},
		{0.0005, 1},
		{0.0004, 0},
		{2.3, 2300},
		{0.29, 290},
		{400, 400_000},
		{123456.789, 123_456_789},
	} {
		if got := msToTime(c.ms); got != c.want {
			t.Errorf("msToTime(%v) = %d µs, want %d", c.ms, got, c.want)
		}
	}
	f := FaultSpec{AtMS: 1.001, EndMS: 2.3, DurationMS: 0.29}
	if f.At() != 1001 || f.End() != 2300 || f.Duration() != 290 {
		t.Errorf("FaultSpec instants = %d/%d/%d µs, want 1001/2300/290", f.At(), f.End(), f.Duration())
	}
}

// TestSignalPeriodRoundsToMicrosecond pins a signal's period_ms to the
// nearest µs like every other millisecond field: a 1.001 ms period is
// 1001 µs, so the sine reads sin(2π·t/1001 µs) at each sample instant t.
func TestSignalPeriodRoundsToMicrosecond(t *testing.T) {
	doc := strings.Replace(customDoc(8, 1), `"period_ms": 100`, `"period_ms": 1.001, "amplitude": 1`, 1)
	m, err := Parse([]byte(doc), "period.json")
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.Engine()
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	e.Cluster.Components()[0].Jobs[0].SensorFault = func(_ string, v float64, now sim.Time) float64 {
		if want := math.Sin(2 * math.Pi * float64(now) / 1001); v != want {
			t.Errorf("sample at %v = %v, want %v", now, v, want)
		}
		samples++
		return v
	}
	e.Cluster.RunRounds(context.Background(), 10)
	if samples == 0 {
		t.Fatal("the sensor never sampled its signal")
	}
}
