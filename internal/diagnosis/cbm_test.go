package diagnosis

import (
	"context"
	"testing"

	"decos/internal/core"
	"decos/internal/faults"
	"decos/internal/sim"
)

func TestTrendDetectsWearout(t *testing.T) {
	// Deep retention so the trend horizon spans the whole degradation,
	// and a slow acceleration so the early half stays below saturation.
	r := newRigWithOptions(t, 41, Options{RetainGranules: 4800, WindowGranules: 400})
	acc := faults.WearoutAcceleration{
		Onset: sim.Time(100 * sim.Millisecond), Tau: 1500 * sim.Millisecond,
		BaseRatePerHour: 3600 * 4, MaxFactor: 10,
	}
	r.inj.Wearout(0, acc, 3600*10)
	r.cl.RunRounds(context.Background(), 5000)
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	trend := r.diag.Assessor.Trend(hw0)
	if !trend.Wearing(1.5) {
		t.Errorf("wearout not detected: %+v", trend)
	}
	if trend.LateRate <= trend.EarlyRate {
		t.Errorf("rate not rising: %+v", trend)
	}
	// A healthy component trends flat.
	hw2, _ := r.diag.Reg.HardwareIndex(2)
	if ht := r.diag.Assessor.Trend(hw2); ht.Wearing(1.5) {
		t.Errorf("healthy component flagged wearing: %+v", ht)
	}
}

func TestRULForecastsDegradingFRU(t *testing.T) {
	r := newRig(t, 42)
	acc := faults.WearoutAcceleration{
		Onset: sim.Time(200 * sim.Millisecond), Tau: 600 * sim.Millisecond,
		BaseRatePerHour: 3600 * 2, MaxFactor: 30,
	}
	r.inj.Wearout(0, acc, 0)
	r.cl.RunRounds(context.Background(), 1200) // early phase: trust starting to decline
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	trust := float64(r.diag.Assessor.Trust(hw0))
	if trust >= 0.999 {
		t.Skip("trust has not started declining at this seed; trend too early")
	}
	rul, ok := r.diag.Assessor.RUL(hw0, 0.2, 8)
	if !ok {
		t.Fatalf("no RUL forecast for degrading FRU (trust %.3f)", trust)
	}
	if trust > 0.2 && rul <= 0 {
		t.Errorf("RUL = %v for trust %.3f", rul, trust)
	}
	// The forecast must come due: run on and verify trust actually
	// crossed the threshold within a generous multiple of the estimate.
	r.cl.RunRounds(context.Background(), 2500)
	if got := float64(r.diag.Assessor.Trust(hw0)); got > 0.2 {
		t.Errorf("trust %.3f never crossed threshold despite forecast %v", got, rul)
	}
}

func TestRULHealthyFRUHasNoForecast(t *testing.T) {
	r := newRig(t, 43)
	r.cl.RunRounds(context.Background(), 1000)
	hw1, _ := r.diag.Reg.HardwareIndex(1)
	if _, ok := r.diag.Assessor.RUL(hw1, 0.2, 8); ok {
		t.Error("healthy FRU received a replacement forecast")
	}
}

func TestRULAlreadyBelowThreshold(t *testing.T) {
	r := newRig(t, 44)
	r.inj.PermanentFailSilent(0, sim.Time(100*sim.Millisecond))
	r.cl.RunRounds(context.Background(), 1500)
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	rul, ok := r.diag.Assessor.RUL(hw0, 0.5, 8)
	if !ok || rul != 0 {
		t.Errorf("dead FRU: rul=%v ok=%v, want 0/true", rul, ok)
	}
	_ = core.ComponentInternal
}

func TestRULDegenerateInputs(t *testing.T) {
	r := newRig(t, 45)
	// No epochs yet: no history.
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	if _, ok := r.diag.Assessor.RUL(hw0, 0.2, 4); ok {
		t.Error("forecast from empty history")
	}
}
