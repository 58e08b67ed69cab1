package diagnosis

import (
	"strings"
	"testing"

	"decos/internal/core"
)

// TestDeriveActionFig11 holds DeriveAction to the paper's Fig. 11 as a
// property over the whole fault model: it is total over every defined
// fault class × update availability, no classified fault falls through
// to manual investigation, an acknowledged update turns the merged
// job-inherent verdict into a software update, and every row matches the
// table below (the mapping documented on core.ActionFor).
func TestDeriveActionFig11(t *testing.T) {
	type row struct {
		class  core.FaultClass
		action core.MaintenanceAction
	}
	// fig11[c] is the derivation for class c without and with an
	// available update.
	fig11 := map[core.FaultClass][2]row{
		core.ClassUnknown:        {{core.ClassUnknown, core.ActionInvestigate}, {core.ClassUnknown, core.ActionInvestigate}},
		core.ComponentExternal:   {{core.ComponentExternal, core.ActionNone}, {core.ComponentExternal, core.ActionNone}},
		core.ComponentBorderline: {{core.ComponentBorderline, core.ActionInspectConnector}, {core.ComponentBorderline, core.ActionInspectConnector}},
		core.ComponentInternal:   {{core.ComponentInternal, core.ActionReplaceComponent}, {core.ComponentInternal, core.ActionReplaceComponent}},
		core.JobExternal:         {{core.JobExternal, core.ActionReplaceComponent}, {core.JobExternal, core.ActionReplaceComponent}},
		core.JobBorderline:       {{core.JobBorderline, core.ActionUpdateConfiguration}, {core.JobBorderline, core.ActionUpdateConfiguration}},
		core.JobInherentSoftware: {{core.JobInherentSoftware, core.ActionForwardToOEM}, {core.JobInherentSoftware, core.ActionUpdateSoftware}},
		core.JobInherentSensor:   {{core.JobInherentSensor, core.ActionInspectTransducer}, {core.JobInherentSensor, core.ActionInspectTransducer}},
		core.JobInherent:         {{core.JobInherent, core.ActionInspectTransducer}, {core.JobInherentSoftware, core.ActionUpdateSoftware}},
	}
	// Every class with a name is a defined class of the model; the first
	// without one is past the end of the enumeration.
	defined := 0
	c := core.ClassUnknown
	for ; !strings.HasPrefix(c.String(), "FaultClass("); c++ {
		defined++
		want, ok := fig11[c]
		if !ok {
			t.Errorf("%v has no Fig. 11 row", c)
			continue
		}
		for i, update := range []bool{false, true} {
			class, action := DeriveAction(c, update)
			if got := (row{class, action}); got != want[i] {
				t.Errorf("DeriveAction(%v, update=%v) = %v/%v, want %v/%v", c, update, class, action, want[i].class, want[i].action)
			}
			if c != core.ClassUnknown && action == core.ActionInvestigate {
				t.Errorf("DeriveAction(%v, update=%v) falls through to %v", c, update, action)
			}
		}
	}
	if defined != len(fig11) {
		t.Errorf("the model defines %d classes, the Fig. 11 table has %d rows", defined, len(fig11))
	}
	// Past the enumeration the derivation stays total: no verdict, manual
	// investigation.
	for _, update := range []bool{false, true} {
		if class, action := DeriveAction(c, update); class != c || action != core.ActionInvestigate {
			t.Errorf("DeriveAction(%v, update=%v) = %v/%v, want %v/investigate", c, update, class, action, c)
		}
	}
}
