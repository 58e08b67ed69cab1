package core

import "testing"

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
