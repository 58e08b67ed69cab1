package maintenance_test

import (
	"testing"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/maintenance"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func TestPreventiveSchedulesWearingFRU(t *testing.T) {
	sys := scenario.Fig10(61, diagnosis.Options{}, nil)
	acc := faults.WearoutAcceleration{
		Onset: sim.Time(200 * sim.Millisecond), Tau: 500 * sim.Millisecond,
		BaseRatePerHour: 3600 * 4, MaxFactor: 40,
	}
	sys.Injector.Wearout(0, acc, 3600*20)
	sys.Run(3000)

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
	sys := scenario.Fig10(62, diagnosis.Options{}, nil)
	sys.Injector.EMIBurst(sim.Time(400*sim.Millisecond), 0.5, 0, 2, 10*sim.Millisecond, 4)
	sys.Run(3000)
	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) != 0 {
		t.Errorf("EMI-disturbed components scheduled for replacement: %v", recs)
	}
}

func TestPreventiveHealthyClusterQuiet(t *testing.T) {
	sys := scenario.Fig10(63, diagnosis.Options{}, nil)
	sys.Run(2000)
	if recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag); len(recs) != 0 {
		t.Errorf("healthy cluster scheduled: %v", recs)
	}
}

func TestPreventiveCorrectivePathForDeadComponent(t *testing.T) {
	sys := scenario.Fig10(64, diagnosis.Options{}, nil)
	sys.Injector.PermanentFailSilent(1, sim.Time(200*sim.Millisecond))
	sys.Run(1500)
	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) != 1 || recs[0].FRU != core.HardwareFRU(1) {
		t.Fatalf("recommendations = %v, want component[1]", recs)
	}
	if recs[0].Due != 0 {
		t.Errorf("dead component due = %v, want immediate", recs[0].Due)
	}
}
