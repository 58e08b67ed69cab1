package core

import (
	"testing"
	"testing/quick"
)

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range []FaultClass{ComponentExternal, ComponentBorderline, ComponentInternal,
		JobExternal, JobBorderline, JobInherentSoftware, JobInherentSensor, ClassUnknown, JobInherent} {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("class %d has empty/duplicate string %q", int(c), s)
		}
		seen[s] = true
	}
	if FaultClass(99).String() == "" {
		t.Error("out-of-range class has empty string")
	}
}

func TestMatchesEquivalences(t *testing.T) {
	cases := []struct {
		truth, diag FaultClass
		want        bool
	}{
		{ComponentInternal, ComponentInternal, true},
		{ComponentInternal, JobExternal, true},
		{JobExternal, ComponentInternal, true},
		{JobInherentSoftware, JobInherent, true},
		{JobInherentSensor, JobInherent, true},
		{JobInherentSoftware, JobInherentSensor, false},
		{ComponentExternal, ComponentInternal, false},
		{ComponentBorderline, ComponentExternal, false},
		{JobBorderline, JobInherent, false},
	}
	for _, c := range cases {
		if got := c.truth.Matches(c.diag); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.truth, c.diag, got, c.want)
		}
	}
}

func TestMatchesReflexive(t *testing.T) {
	f := func(n uint8) bool {
		c := FaultClass(int(n) % int(NumFaultClasses))
		return c.Matches(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFRU(t *testing.T) {
	hw := HardwareFRU(3)
	if !hw.IsHardware() || hw.String() != "component[3]" {
		t.Errorf("hardware FRU wrong: %v", hw)
	}
	sw := SoftwareFRU(2, "A/control")
	if sw.IsHardware() {
		t.Error("software FRU claims hardware")
	}
	if sw.String() != "job[A/control@2]" {
		t.Errorf("String() = %q", sw.String())
	}
	// FRUs are comparable map keys.
	m := map[FRU]int{hw: 1, sw: 2}
	if m[HardwareFRU(3)] != 1 || m[SoftwareFRU(2, "A/control")] != 2 {
		t.Error("FRU equality broken")
	}
}

func TestChainOrderingEnforced(t *testing.T) {
	var c Chain
	c.Append(Stage{Kind: StageFault, FRU: HardwareFRU(1), Detail: "PCB crack"})
	c.Append(Stage{Kind: StageError, FRU: HardwareFRU(1), Detail: "bit flip"})
	c.Append(Stage{Kind: StageFailure, FRU: HardwareFRU(1), Detail: "omission"})
	c.Append(Stage{Kind: StageFailure, FRU: HardwareFRU(1), Detail: "omission"})
	if !c.Complete() {
		t.Error("complete chain not recognized")
	}
	root, ok := c.Root()
	if !ok || root.Detail != "PCB crack" {
		t.Errorf("Root() = %+v, %v", root, ok)
	}
	if len(c.Failures()) != 2 {
		t.Errorf("Failures() = %d, want 2", len(c.Failures()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("regressing stage kind accepted")
		}
	}()
	c.Append(Stage{Kind: StageFault})
}

func TestChainIncomplete(t *testing.T) {
	var c Chain
	if c.Complete() {
		t.Error("empty chain complete")
	}
	c.Append(Stage{Kind: StageFault, FRU: HardwareFRU(0), Detail: "latent"})
	if c.Complete() {
		t.Error("fault-only chain complete (latent fault never failed)")
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestFig8Patterns(t *testing.T) {
	ps := Fig8Patterns()
	if len(ps) != 3 {
		t.Fatalf("Fig8Patterns() = %d", len(ps))
	}
	// The table of Fig. 8, row by row.
	w := ps[0]
	if w.Time != TimeIncreasingFrequency || w.Space != SpaceOneComponent ||
		w.Value != ValueIncreasingDeviation || w.Implies != ComponentInternal {
		t.Errorf("wearout pattern wrong: %v", w)
	}
	m := ps[1]
	if m.Time != TimeSimultaneous || m.Space != SpaceMultipleProximate ||
		m.Value != ValueMultiBitFlips || m.Implies != ComponentExternal {
		t.Errorf("massive-transient pattern wrong: %v", m)
	}
	c := ps[2]
	if c.Time != TimeArbitrary || c.Space != SpaceOneComponent ||
		c.Value != ValueOmissions || c.Implies != ComponentBorderline {
		t.Errorf("connector pattern wrong: %v", c)
	}
}

func TestActionForCoversFig11(t *testing.T) {
	cases := []struct {
		class  FaultClass
		update bool
		want   MaintenanceAction
	}{
		{ComponentExternal, false, ActionNone},
		{ComponentBorderline, false, ActionInspectConnector},
		{ComponentInternal, false, ActionReplaceComponent},
		{JobExternal, false, ActionReplaceComponent},
		{JobBorderline, false, ActionUpdateConfiguration},
		{JobInherentSensor, false, ActionInspectTransducer},
		{JobInherentSoftware, true, ActionUpdateSoftware},
		{JobInherentSoftware, false, ActionForwardToOEM},
		{JobInherent, false, ActionInspectTransducer},
		{ClassUnknown, false, ActionInvestigate},
	}
	for _, c := range cases {
		if got := ActionFor(c.class, c.update); got != c.want {
			t.Errorf("ActionFor(%v, %v) = %v, want %v", c.class, c.update, got, c.want)
		}
	}
}

func TestActionRemoval(t *testing.T) {
	if !ActionReplaceComponent.Removal() {
		t.Error("component replacement not flagged as removal")
	}
	for _, a := range []MaintenanceAction{ActionNone, ActionInspectConnector,
		ActionInspectTransducer, ActionUpdateConfiguration, ActionUpdateSoftware,
		ActionForwardToOEM, ActionInvestigate} {
		if a.Removal() {
			t.Errorf("%v flagged as removal", a)
		}
	}
}

func TestTrustLevel(t *testing.T) {
	if TrustLevel(1.5).Clamp() != 1 || TrustLevel(-0.1).Clamp() != 0 || TrustLevel(0.4).Clamp() != 0.4 {
		t.Error("Clamp wrong")
	}
}

func TestEnumStringsTotal(t *testing.T) {
	for i := 0; i <= 3; i++ {
		if TimeSignature(i).String() == "" {
			t.Errorf("TimeSignature(%d) empty", i)
		}
		if i <= 3 && SpaceSignature(i).String() == "" {
			t.Errorf("SpaceSignature(%d) empty", i)
		}
	}
	for i := 0; i <= 4; i++ {
		if ValueSignature(i).String() == "" {
			t.Errorf("ValueSignature(%d) empty", i)
		}
	}
	for i := 0; i <= 2; i++ {
		if Persistence(i).String() == "" {
			t.Errorf("Persistence(%d) empty", i)
		}
	}
	for i := 0; i <= 7; i++ {
		if MaintenanceAction(i).String() == "" {
			t.Errorf("MaintenanceAction(%d) empty", i)
		}
	}
	if StageFault.String() != "fault" || StageError.String() != "error" || StageFailure.String() != "failure" {
		t.Error("stage strings wrong")
	}
}
