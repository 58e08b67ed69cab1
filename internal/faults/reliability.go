// Package faults implements the fault-injection side of the reproduction:
// the quantitative reliability assumptions of the paper's fault hypothesis
// (Section III-E), the bathtub-curve lifetime model (Fig. 7), and the
// runtime manifestation of every fault class of the maintenance-oriented
// model on a simulated DECOS cluster, with a ground-truth ledger the
// maintenance auditor joins against diagnostic verdicts.
package faults

import (
	"math"

	"decos/internal/sim"
)

// Quantitative assumptions of the DECOS maintenance-oriented fault model
// (paper Section III-E), plus the field statistics cited in Section III-E
// and Section I.
const (
	// PermanentFIT is the permanent hardware failure rate of a FRU:
	// 100 FIT ≈ one failure per 1000 years.
	PermanentFIT = 100.0
	// TransientFIT is the transient hardware failure rate of a FRU:
	// 100 000 FIT ≈ one failure per year (the paper notes this rate is not
	// well substantiated).
	TransientFIT = 100_000.0
	// UsefulLifeFailuresPerMillionPerYear is the Pauli & Meyna field
	// statistic: 50 failures per 1e6 ECUs per year during useful life.
	UsefulLifeFailuresPerMillionPerYear = 50.0
)

// Durations of the fault hypothesis.
const (
	// TransientOutage is the assumed duration of a transient hardware FRU
	// failure (tens of milliseconds; ≤ 50 ms for an automotive steering
	// system per Heiner & Thurner).
	TransientOutage = 50 * sim.Millisecond
	// EMIBurstDuration is the duration of an EMI burst per ISO 7637
	// (~10 ms).
	EMIBurstDuration = 10 * sim.Millisecond
	// OBDRecordThreshold is the recording threshold of conventional
	// on-board diagnosis: transient failures shorter than 500 ms are not
	// recorded.
	OBDRecordThreshold = 500 * sim.Millisecond
)

// HoursPerYear follows the FIT convention (365.25 days).
const HoursPerYear = 8766.0

// FITToRate converts a FIT value (failures per 1e9 device-hours) to a
// per-hour rate.
func FITToRate(fit float64) float64 { return fit / 1e9 }

// RateToFIT converts a per-hour rate to FIT.
func RateToFIT(ratePerHour float64) float64 { return ratePerHour * 1e9 }

// Bathtub is the three-phase lifetime model of the paper's Fig. 7. A unit's
// lifetime is the minimum of three competing failure processes:
//
//   - infant mortality: a Weibull with shape < 1 (decreasing hazard),
//     present only in the defective sub-population (the paper stresses that
//     infant failures hit a sub-population, wearout the whole population);
//   - useful life: a constant ("random") hazard;
//   - wearout: a Weibull with shape > 1 (increasing hazard).
type Bathtub struct {
	// InfantFraction is the fraction of the population carrying a
	// manufacturing defect.
	InfantFraction float64
	// InfantShape (<1) and InfantScaleH parameterize the infant Weibull.
	InfantShape  float64
	InfantScaleH float64
	// UsefulFIT is the constant hazard of the useful-life phase, in FIT.
	UsefulFIT float64
	// WearoutShape (>1) and WearoutScaleH parameterize the wearout
	// Weibull.
	WearoutShape  float64
	WearoutScaleH float64
}

// AutomotiveECU returns a bathtub model calibrated to the paper's numbers:
// useful-life hazard of 50/1e6/year (≈ 5.7 FIT field rate for the
// sub-population statistic; the fault hypothesis uses 100 FIT as the design
// bound, which we adopt), 2 % infant-defect fraction fading over the first
// 1000 h, and wearout setting in around 15 years.
func AutomotiveECU() Bathtub {
	return Bathtub{
		InfantFraction: 0.02,
		InfantShape:    0.5,
		InfantScaleH:   20_000,
		UsefulFIT:      PermanentFIT,
		WearoutShape:   7,
		WearoutScaleH:  16 * HoursPerYear,
	}
}

// weibullHazard returns the hazard k/λ·(t/λ)^(k-1).
func weibullHazard(t, shape, scale float64) float64 {
	if t <= 0 {
		t = 1e-9
	}
	return shape / scale * math.Pow(t/scale, shape-1)
}

// Hazard returns the population-average hazard rate (per hour) at age
// ageHours: the defective sub-population contributes the infant hazard
// weighted by its (surviving) fraction; every unit carries the useful-life
// and wearout processes.
func (b Bathtub) Hazard(ageHours float64) float64 {
	h := FITToRate(b.UsefulFIT) + weibullHazard(ageHours, b.WearoutShape, b.WearoutScaleH)
	if b.InfantFraction > 0 {
		// Weight the infant hazard by the fraction of defective units
		// still alive relative to the whole surviving population
		// (approximated by the defective survival ratio).
		sInfant := math.Exp(-math.Pow(ageHours/b.InfantScaleH, b.InfantShape))
		frac := b.InfantFraction * sInfant / (b.InfantFraction*sInfant + (1 - b.InfantFraction))
		h += frac * weibullHazard(ageHours, b.InfantShape, b.InfantScaleH)
	}
	return h
}

// SampleLifetime draws one unit's time to permanent failure, in hours.
func (b Bathtub) SampleLifetime(rng *sim.RNG) float64 {
	life := math.Inf(1)
	if b.UsefulFIT > 0 {
		life = rng.Exp(FITToRate(b.UsefulFIT))
	}
	if b.WearoutScaleH > 0 {
		if w := rng.Weibull(b.WearoutShape, b.WearoutScaleH); w < life {
			life = w
		}
	}
	if b.InfantFraction > 0 && rng.Bool(b.InfantFraction) {
		if inf := rng.Weibull(b.InfantShape, b.InfantScaleH); inf < life {
			life = inf
		}
	}
	return life
}

// EmpiricalHazard estimates the hazard curve by Monte Carlo: it simulates n
// unit lifetimes and returns, for each requested age bin edge pair
// (binsHours[i], binsHours[i+1]), the estimated hazard (failures per
// surviving unit per hour) in that bin. The final slice has
// len(binsHours)-1 entries.
func (b Bathtub) EmpiricalHazard(n int, binsHours []float64, rng *sim.RNG) []float64 {
	if len(binsHours) < 2 {
		return nil
	}
	fails := make([]int, len(binsHours)-1)
	atRiskHours := make([]float64, len(binsHours)-1)
	for u := 0; u < n; u++ {
		life := b.SampleLifetime(rng)
		for i := 0; i+1 < len(binsHours); i++ {
			lo, hi := binsHours[i], binsHours[i+1]
			if life <= lo {
				break
			}
			if life < hi {
				fails[i]++
				atRiskHours[i] += life - lo
				break
			}
			atRiskHours[i] += hi - lo
		}
	}
	out := make([]float64, len(fails))
	for i := range fails {
		if atRiskHours[i] > 0 {
			out[i] = float64(fails[i]) / atRiskHours[i]
		}
	}
	return out
}

// WearoutAcceleration models the paper's wearout indicator: the transient
// failure rate of a worn component grows with accumulated stress. Rate(t)
// multiplies a base transient rate by exp((t-onset)/tau) after onset.
type WearoutAcceleration struct {
	Onset sim.Time
	// Tau is the e-folding time of the transient-rate growth.
	Tau sim.Duration
	// BaseRatePerHour is the pre-onset transient rate.
	BaseRatePerHour float64
	// MaxFactor caps the acceleration (physical saturation).
	MaxFactor float64
}

// RatePerHour returns the accelerated transient rate at time t.
func (w WearoutAcceleration) RatePerHour(t sim.Time) float64 {
	if t <= w.Onset || w.Tau <= 0 {
		return w.BaseRatePerHour
	}
	f := math.Exp(float64(t-w.Onset) / float64(w.Tau))
	if w.MaxFactor > 0 && f > w.MaxFactor {
		f = w.MaxFactor
	}
	return w.BaseRatePerHour * f
}
