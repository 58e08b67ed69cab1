package core

import (
	"encoding/json"
	"testing"
)

func TestParseFaultClassRoundTrip(t *testing.T) {
	for c := ClassUnknown; c < NumFaultClasses; c++ {
		got, err := ParseFaultClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseFaultClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseFaultClass("nonsense"); err == nil {
		t.Error("ParseFaultClass accepted nonsense")
	}
}

func TestParseMaintenanceActionRoundTrip(t *testing.T) {
	for a := ActionNone; a <= ActionInvestigate; a++ {
		got, err := ParseMaintenanceAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseMaintenanceAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseMaintenanceAction(""); err == nil {
		t.Error("ParseMaintenanceAction accepted empty string")
	}
}

func TestParseFRURoundTrip(t *testing.T) {
	frus := []FRU{
		HardwareFRU(0),
		HardwareFRU(17),
		SoftwareFRU(3, "A/A1"),
		SoftwareFRU(0, "diag/assessor"),
	}
	for _, f := range frus {
		got, err := ParseFRU(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFRU(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, bad := range []string{"", "component[x]", "job[noat]", "widget[1]"} {
		if _, err := ParseFRU(bad); err == nil {
			t.Errorf("ParseFRU(%q) accepted", bad)
		}
	}
}

// TestEnumJSONNames: both enums cross JSON by their String names, as
// object values and as map keys, and an unknown name fails the decode.
func TestEnumJSONNames(t *testing.T) {
	type rec struct {
		Class  FaultClass                       `json:"class"`
		Action MaintenanceAction                `json:"action"`
		ByKind map[FaultClass]MaintenanceAction `json:"by_kind"`
	}
	in := rec{JobInherentSoftware, ActionForwardToOEM, map[FaultClass]MaintenanceAction{ComponentInternal: ActionReplaceComponent}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"class":"job-inherent-software","action":"forward-to-oem","by_kind":{"component-internal":"replace-component"}}`
	if string(b) != want {
		t.Fatalf("encoded %s, want %s", b, want)
	}
	var back rec
	if err := json.Unmarshal(b, &back); err != nil || back.Class != in.Class || back.Action != in.Action ||
		back.ByKind[ComponentInternal] != ActionReplaceComponent {
		t.Fatalf("decoded %+v, %v", back, err)
	}
	for _, doc := range []string{`{"class":"nonsense"}`, `{"action":"nonsense"}`, `{"class":3}`} {
		if err := json.Unmarshal([]byte(doc), new(rec)); err == nil {
			t.Errorf("decoded %s", doc)
		}
	}
}
