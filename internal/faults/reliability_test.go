package faults

import (
	"math"
	"testing"

	"decos/internal/sim"
)

func TestFITConversions(t *testing.T) {
	if got := FITToRate(1e9); got != 1 {
		t.Errorf("FITToRate(1e9) = %v", got)
	}
	if got := RateToFIT(1e-7); math.Abs(got-100) > 1e-9 {
		t.Errorf("RateToFIT(1e-7) = %v", got)
	}
	// The paper: 100 FIT ≈ 1000 years MTTF.
	mttfYears := func(fit float64) float64 { return 1 / FITToRate(fit) / HoursPerYear }
	if y := mttfYears(PermanentFIT); y < 1000 || y > 1200 {
		t.Errorf("MTTF(100 FIT) = %v years, want ≈1141", y)
	}
	// 100 000 FIT ≈ about 1 year.
	if y := mttfYears(TransientFIT); y < 1.0 || y > 1.3 {
		t.Errorf("MTTF(100k FIT) = %v years, want ≈1.14", y)
	}
}

func TestBathtubHazardShape(t *testing.T) {
	b := AutomotiveECU()
	early := b.Hazard(10)
	youth := b.Hazard(1000)
	mid := b.Hazard(5 * HoursPerYear)
	old := b.Hazard(20 * HoursPerYear)
	// Infant mortality: hazard decreases over the first phase.
	if early <= youth {
		t.Errorf("infant hazard not decreasing: h(10)=%v h(1000)=%v", early, youth)
	}
	// Wearout: hazard increases late in life.
	if old <= mid {
		t.Errorf("wearout hazard not increasing: h(5y)=%v h(20y)=%v", mid, old)
	}
	// Useful life floor: mid-life hazard is near the constant rate.
	if mid < FITToRate(PermanentFIT) {
		t.Errorf("mid-life hazard %v below useful-life rate", mid)
	}
}

func TestBathtubSampleLifetimePositive(t *testing.T) {
	b := AutomotiveECU()
	rng := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if l := b.SampleLifetime(rng); l <= 0 || math.IsNaN(l) {
			t.Fatalf("lifetime %v", l)
		}
	}
}

func TestBathtubEmpiricalHazardReproducesCurve(t *testing.T) {
	b := AutomotiveECU()
	rng := sim.NewRNG(2)
	bins := []float64{0, 500, 2000, 8766, 5 * HoursPerYear, 12 * HoursPerYear, 16 * HoursPerYear, 22 * HoursPerYear}
	h := b.EmpiricalHazard(200_000, bins, rng)
	if len(h) != len(bins)-1 {
		t.Fatalf("bins = %d", len(h))
	}
	// Empirical curve shows the bathtub: first bin > mid bins < last bin.
	midIdx := 3
	if h[0] <= h[midIdx] {
		t.Errorf("no infant-mortality elevation: h0=%v hmid=%v", h[0], h[midIdx])
	}
	if h[len(h)-1] <= h[midIdx]*5 {
		t.Errorf("no wearout elevation: hlast=%v hmid=%v", h[len(h)-1], h[midIdx])
	}
}

func TestEmpiricalHazardDegenerate(t *testing.T) {
	b := AutomotiveECU()
	if b.EmpiricalHazard(10, []float64{0}, sim.NewRNG(1)) != nil {
		t.Error("single-edge bins should yield nil")
	}
}

func TestWearoutAcceleration(t *testing.T) {
	w := WearoutAcceleration{
		Onset:           sim.Time(sim.Hour),
		Tau:             2 * sim.Hour,
		BaseRatePerHour: 1,
		MaxFactor:       100,
	}
	if r := w.RatePerHour(0); r != 1 {
		t.Errorf("pre-onset rate = %v", r)
	}
	r1 := w.RatePerHour(sim.Time(3 * sim.Hour)) // e^1
	if math.Abs(r1-math.E) > 1e-9 {
		t.Errorf("rate at onset+2h = %v, want e", r1)
	}
	// Cap applies.
	if r := w.RatePerHour(sim.Time(100 * sim.Hour)); r != 100 {
		t.Errorf("capped rate = %v", r)
	}
	// Zero tau disables growth.
	flat := WearoutAcceleration{BaseRatePerHour: 3}
	if flat.RatePerHour(sim.Time(sim.Hour)) != 3 {
		t.Error("flat process accelerated")
	}
}

func TestConstantsMatchPaper(t *testing.T) {
	if TransientOutage != 50*sim.Millisecond {
		t.Error("transient outage != 50 ms")
	}
	if EMIBurstDuration != 10*sim.Millisecond {
		t.Error("EMI burst != 10 ms")
	}
	if OBDRecordThreshold != 500*sim.Millisecond {
		t.Error("OBD threshold != 500 ms")
	}
}
