package experiments

import (
	"context"
	"fmt"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/tt"
)

// E4Patterns measures the fault-pattern table of the paper's Fig. 8 from
// simulation: for wearout, massive transient and connector faults, the
// characteristic manifestation in the time, space and value dimensions of
// the distributed state.
func E4Patterns(seed uint64) *Result {
	metrics := map[string]float64{}
	t := newTable("fault", "time dimension", "space dimension", "value dimension")
	wearout, emi, connector := e4Runs(seed)

	// --- Wearout: increasing frequency, one component, rising deviation.
	{
		sys := wearout.build()
		sys.Cluster.RunRounds(context.Background(), wearout.rounds)
		hist := sys.Diag.Assessor.Hist
		hw0, _ := sys.Diag.Reg.HardwareIndex(0)
		g := hist.Latest()
		firstHalf := len(hist.ActiveGranules(hw0, 0, g/2, diagnosis.KindIn(diagnosis.SymCorruption)))
		secondHalf := len(hist.ActiveGranules(hw0, g/2+1, g, diagnosis.KindIn(diagnosis.SymCorruption)))
		affected := corruptedComponents(sys, g)
		devEarly := maxJobDeviation(sys, 0, 0, g/2)
		devLate := maxJobDeviation(sys, 0, g/2+1, g)
		rise := ratio(secondHalf, firstHalf)
		t.row("wearout",
			fmt.Sprintf("episode granules %d→%d (×%.1f rising)", firstHalf, secondHalf, rise),
			fmt.Sprintf("%d component(s)", affected),
			fmt.Sprintf("deviation %.2f→%.2f (increasing)", devEarly, devLate))
		metrics["wearout_rise"] = rise
		metrics["wearout_components"] = float64(affected)
		metrics["wearout_dev_increasing"] = b2f(devLate > devEarly)
	}

	// --- Massive transient: simultaneous, spatially proximate, multi-bit.
	{
		sys := emi.build()
		sys.Cluster.RunRounds(context.Background(), emi.rounds)
		hist := sys.Diag.Assessor.Hist
		g := hist.Latest()
		var spanMin, spanMax int64 = 1 << 62, -1
		comps := 0
		maxBits := 0.0
		for _, hw := range sys.Diag.Reg.HardwareFRUs() {
			gs := hist.ActiveGranules(hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption))
			if len(gs) == 0 {
				continue
			}
			comps++
			if gs[0] < spanMin {
				spanMin = gs[0]
			}
			if gs[len(gs)-1] > spanMax {
				spanMax = gs[len(gs)-1]
			}
			if d := hist.MaxDeviation(hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption)); d > maxBits {
				maxBits = d
			}
		}
		span := spanMax - spanMin
		t.row("massive transient",
			fmt.Sprintf("all within %d ms window", span),
			fmt.Sprintf("%d proximate components", comps),
			fmt.Sprintf("multi-bit flips (max %.0f bits)", maxBits))
		metrics["emi_span_granules"] = float64(span)
		metrics["emi_components"] = float64(comps)
		metrics["emi_max_bits"] = maxBits
	}

	// --- Connector: arbitrary times, one component, omissions.
	{
		sys := connector.build()
		sys.Cluster.RunRounds(context.Background(), connector.rounds)
		hist := sys.Diag.Assessor.Hist
		g := hist.Latest()
		hw0, _ := sys.Diag.Reg.HardwareIndex(0)
		omit := hist.ActiveGranules(hw0, 0, g, diagnosis.KindIn(diagnosis.SymOmission))
		comps := 0
		for _, hw := range sys.Diag.Reg.HardwareFRUs() {
			if len(hist.ActiveGranules(hw, 0, g, diagnosis.KindIn(diagnosis.SymOmission))) > 0 {
				comps++
			}
		}
		duty := float64(len(omit)) / float64(g-200+1)
		corr := hist.Count(hw0, 0, g, diagnosis.KindIn(diagnosis.SymCorruption))
		t.row("connector",
			fmt.Sprintf("arbitrary, duty %.0f%% of granules", 100*duty),
			fmt.Sprintf("%d component(s)", comps),
			fmt.Sprintf("omissions on channel (%d granules; %d corruptions)", len(omit), corr))
		metrics["connector_duty"] = duty
		metrics["connector_components"] = float64(comps)
		metrics["connector_omission_granules"] = float64(len(omit))
	}

	return &Result{
		ID:      "E4",
		Figure:  "Fig. 8 — fault patterns in time/space/value, measured",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// e4Runs returns E4's three runs, one per Fig. 8 pattern: a wearout of
// component 0, an EMI burst around (0.5, 0), and a fretting connector on
// component 0.
func e4Runs(seed uint64) (wearout, emi, connector run) {
	opts := diagnosis.Options{RetainGranules: 10_000, WindowGranules: 3000}
	return run{seed: seed, opts: opts, rounds: 3000, plan: plan(ms(200), pack.FaultSpec{Kind: "wearout", Component: 0,
			TauMS: 500, BaseRatePerHour: 3600 * 3, MaxFactor: 40, DriftPerHour: 3600 * 20})},
		run{seed: seed + 1, opts: opts, rounds: 2000, plan: plan(ms(500),
			pack.FaultSpec{Kind: "emi-burst", Component: -1, X: 0.5, Radius: 2, DurationMS: 10, Bits: 4})},
		run{seed: seed + 2, opts: opts, rounds: 3000, plan: plan(ms(200),
			pack.FaultSpec{Kind: "connector-tx", Component: 0, Rate: 0.25})}
}

func corruptedComponents(sys *engine.Engine, g int64) int {
	n := 0
	for _, hw := range sys.Diag.Reg.HardwareFRUs() {
		if len(sys.Diag.Assessor.Hist.ActiveGranules(hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption))) > 0 {
			n++
		}
	}
	return n
}

func maxJobDeviation(sys *engine.Engine, node int, from, to int64) float64 {
	max := 0.0
	hw, _ := sys.Diag.Reg.HardwareIndex(tt.NodeID(node))
	for _, sw := range sys.Diag.Reg.JobsOn(hw) {
		d := sys.Diag.Assessor.Hist.MaxDeviation(sw, from, to,
			diagnosis.KindIn(diagnosis.SymDeviation, diagnosis.SymValue))
		if d > max {
			max = d
		}
	}
	return max
}

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}
