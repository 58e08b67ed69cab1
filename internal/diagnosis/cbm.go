package diagnosis

import (
	"math"

	"decos/internal/sim"
)

// Condition-based maintenance (paper Section III-E): the increase of
// transient failures is the wearout indicator of electronics — the
// measurable analogue of a brake pad's remaining thickness. This file
// turns the indicator into schedulable numbers: the episode-rate trend of
// a hardware FRU and a remaining-useful-life estimate derived from the
// trust trajectory.

// WearoutTrend quantifies the transient-episode trend of a hardware FRU
// over the retained history: the symptomatic-granule rate in the older and
// newer half of the window and their ratio.
type WearoutTrend struct {
	EarlyRate float64 // symptomatic granules per granule, older half
	LateRate  float64 // newer half
	// Growth is LateRate/EarlyRate (1 = stable; math.Inf(1) when episodes
	// only just appeared).
	Growth float64
	// Deviation is the latest value-deviation magnitude of hosted jobs.
	Deviation float64
}

// Wearing reports whether the trend satisfies the wearout indicator: a
// rising episode rate with actual late-phase activity.
func (w WearoutTrend) Wearing(riseFactor float64) bool {
	return w.LateRate > 0 && w.Growth >= riseFactor
}

// Trend computes the wearout trend of a hardware FRU. Unlike the ONA
// predicates (which use the correlation window), the maintenance trend
// spans the full retained history — the longest view available — since its
// purpose is replacement scheduling, not fault classification.
func (a *Assessor) Trend(hw FRUIndex) WearoutTrend {
	g := a.Hist.Latest()
	from := g - a.opts.RetainGranules + 1
	if from < 0 {
		from = 0
	}
	mid := (from + g) / 2
	span1 := float64(mid - from + 1)
	span2 := float64(g - mid)
	if span1 <= 0 || span2 <= 0 {
		return WearoutTrend{Growth: 1}
	}
	early := float64(a.Hist.ActiveGranuleCount(hw, from, mid, corruptionOnly))
	late := float64(a.Hist.ActiveGranuleCount(hw, mid+1, g, corruptionOnly))
	t := WearoutTrend{
		EarlyRate: early / span1,
		LateRate:  late / span2,
	}
	switch {
	case early == 0 && late == 0:
		t.Growth = 1
	case early == 0:
		t.Growth = math.Inf(1)
	default:
		t.Growth = t.LateRate / t.EarlyRate
	}
	for _, sw := range a.Reg.JobsOn(hw) {
		if d := a.Hist.MaxDeviation(sw, mid+1, g, devOrValue); d > t.Deviation {
			t.Deviation = d
		}
	}
	return t
}

// RUL estimates the remaining useful life of a FRU by extrapolating its
// trust trajectory: a least-squares line through the last window trust
// samples, intersected with the given trust threshold. Results:
//
//   - remaining > 0: estimated time until the FRU's trust crosses the
//     threshold (schedule replacement within this horizon);
//   - remaining == 0: already below threshold (replace now);
//   - ok == false: the trajectory is flat or improving — no wearout-driven
//     replacement is forecast.
//
// The estimate is deliberately simple (linear in the trust domain); its
// role is to order maintenance, not to predict failure physics.
func (a *Assessor) RUL(f FRUIndex, threshold float64, window int) (remaining sim.Duration, ok bool) {
	hist := a.trustHist[f]
	if len(hist) < 2 {
		return 0, false
	}
	if window <= 1 || window > len(hist) {
		window = len(hist)
	}
	pts := hist[len(hist)-window:]
	last := pts[len(pts)-1]
	if float64(last.Trust) <= threshold {
		return 0, true
	}
	// Least squares over (t, trust).
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := p.At.Seconds()
		y := float64(p.Trust)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	slope := (n*sxy - sx*sy) / den
	if slope >= -1e-9 {
		return 0, false // flat or recovering
	}
	secondsLeft := (float64(last.Trust) - threshold) / -slope
	return sim.Duration(secondsLeft * float64(sim.Second)), true
}
