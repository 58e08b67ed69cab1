package baseline_test

import (
	"context"
	"math"
	"testing"

	"decos/internal/baseline"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func TestOBDRecordsPermanentFailure(t *testing.T) {
	sys := scenario.Fig10(1, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(100 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 0}},
	})
	sys.Cluster.RunRounds(context.Background(), 4000) // 4 s: well past the 500 ms threshold
	if !sys.OBD.HasDTC(0) {
		t.Fatalf("no DTC for dead component; codes: %v", sys.OBD.DTCs())
	}
	action, class, ok := sys.OBD.Advise(core.HardwareFRU(0))
	if !ok || action != core.ActionReplaceComponent || class != core.ComponentInternal {
		t.Errorf("Advise = %v/%v/%v", action, class, ok)
	}
}

func TestOBDMissesShortTransients(t *testing.T) {
	// The paper: failures significantly shorter than 500 ms cannot be
	// detected by conventional OBD. A 10 ms EMI burst and a 50 ms outage
	// must leave no DTC.
	sys := scenario.Fig10(2, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(100 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "emi-burst", Component: -1, X: 0.5, Radius: 2, DurationMS: 10, Bits: 4}},
		{At: sim.Time(300 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "seu", Component: 2}},
	})
	sys.Cluster.RunRounds(context.Background(), 4000)
	if len(sys.OBD.DTCs()) != 0 {
		t.Errorf("OBD recorded DTCs for sub-threshold transients: %v", sys.OBD.DTCs())
	}
}

func TestOBDMissesIntermittentConnector(t *testing.T) {
	// A fretting connector drops 30 % of frames — each gap lasts only a
	// few slots, never 500 ms — so OBD stores nothing although the fault
	// is real. This is exactly the paper's fault-not-found phenomenon.
	sys := scenario.Fig10(3, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(50 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "connector-tx", Component: 0, Rate: 0.3}},
	})
	sys.Cluster.RunRounds(context.Background(), 4000)
	if sys.OBD.HasDTC(0) {
		t.Error("OBD recorded the sub-threshold intermittent connector")
	}
	_, _, found := sys.OBD.Advise(core.HardwareFRU(0))
	if found {
		t.Error("OBD advises on a fault it cannot see")
	}
	// The DECOS diagnosis, for comparison, identifies it.
	if _, ok := sys.Diag.VerdictOf(core.HardwareFRU(0)); !ok {
		t.Error("DECOS diagnosis also missed the connector fault")
	}
}

func TestOBDBlamesECUForSoftwareFault(t *testing.T) {
	// A Bohrbug produces persistently implausible values → plausibility
	// DTC against the hosting ECU → replacement of healthy hardware
	// (no-fault-found at the bench).
	sys := scenario.Fig10(4, diagnosis.Options{}, []scenario.InjectPlan{
		{Fault: &pack.FaultSpec{Kind: "bohrbug", Job: "A/A1", Channel: scenario.ChSpeed, Threshold: math.Inf(-1), Value: 400}},
	})
	sys.Cluster.RunRounds(context.Background(), 4000)
	if !sys.OBD.HasDTC(0) {
		t.Fatalf("no plausibility DTC; codes: %v", sys.OBD.DTCs())
	}
	action, _, ok := sys.OBD.Advise(core.SoftwareFRU(0, "A/A1"))
	if !ok || action != core.ActionReplaceComponent {
		t.Errorf("OBD should recommend (wrongly) replacing the ECU, got %v/%v", action, ok)
	}
}

func TestOBDCleanOnHealthyVehicle(t *testing.T) {
	sys := scenario.Fig10(5, diagnosis.Options{}, nil)
	sys.Cluster.RunRounds(context.Background(), 3000)
	if got := sys.OBD.DTCs(); len(got) != 0 {
		t.Errorf("healthy vehicle has DTCs: %v", got)
	}
}

func TestDTCString(t *testing.T) {
	d := baseline.DTC{Component: 2, Code: "U", First: 100, Count: 3}
	if d.String() == "" {
		t.Error("empty DTC string")
	}
	_ = faults.OBDRecordThreshold
	if baseline.DTCThreshold != faults.OBDRecordThreshold {
		t.Error("threshold constants diverge")
	}
}
