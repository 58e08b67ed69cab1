package maintenance_test

import (
	"context"
	"testing"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/maintenance"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func TestPreventiveSchedulesWearingFRU(t *testing.T) {
	sys := scenario.Fig10(61, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(200 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "wearout", Component: 0,
			TauMS: 500, BaseRatePerHour: 3600 * 4, MaxFactor: 40, DriftPerHour: 3600 * 20}},
	})
	sys.Cluster.RunRounds(context.Background(), 3000)

	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) != 1 {
		t.Fatalf("recommendations = %v, want exactly the wearing FRU", recs)
	}
	if recs[0].FRU != core.HardwareFRU(0) {
		t.Errorf("scheduled %v, want component[0]", recs[0].FRU)
	}
	if recs[0].String() == "" {
		t.Error("empty recommendation string")
	}
}

func TestPreventiveIgnoresExternalDisturbance(t *testing.T) {
	sys := scenario.Fig10(62, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(400 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "emi-burst", Component: -1, X: 0.5, Radius: 2, DurationMS: 10, Bits: 4}},
	})
	sys.Cluster.RunRounds(context.Background(), 3000)
	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) != 0 {
		t.Errorf("EMI-disturbed components scheduled for replacement: %v", recs)
	}
}

func TestPreventiveHealthyClusterQuiet(t *testing.T) {
	sys := scenario.Fig10(63, diagnosis.Options{}, nil)
	sys.Cluster.RunRounds(context.Background(), 2000)
	if recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag); len(recs) != 0 {
		t.Errorf("healthy cluster scheduled: %v", recs)
	}
}

func TestPreventiveCorrectivePathForDeadComponent(t *testing.T) {
	sys := scenario.Fig10(64, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(200 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 1}},
	})
	sys.Cluster.RunRounds(context.Background(), 1500)
	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) != 1 || recs[0].FRU != core.HardwareFRU(1) {
		t.Fatalf("recommendations = %v, want component[1]", recs)
	}
	if recs[0].Due != 0 {
		t.Errorf("dead component due = %v, want immediate", recs[0].Due)
	}
}
