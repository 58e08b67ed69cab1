package experiments

import (
	"context"
	"fmt"

	"decos/internal/pack"
)

// E5Trust regenerates the LRU assessment trajectories of the paper's
// Fig. 9: trajectory A — a degrading FRU (wearout) whose trust declines
// with increasing confidence of a specification violation; trajectory B —
// a healthy FRU that suffers a brief external disturbance, dips, and
// recovers to conformance.
func E5Trust(seed uint64) *Result {
	r := e5Run(seed)
	sys := r.build()
	sys.Cluster.RunRounds(context.Background(), r.rounds)

	hwA, _ := sys.Diag.Reg.HardwareIndex(0)
	hwB, _ := sys.Diag.Reg.HardwareIndex(2)
	histA := sys.Diag.Assessor.TrustHistory(hwA)
	histB := sys.Diag.Assessor.TrustHistory(hwB)

	t := newTable("time", "trust A (wearout FRU)", "trust B (EMI-hit FRU)")
	step := len(histA) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(histA); i += step {
		t.row(histA[i].At.String(),
			fmt.Sprintf("%.3f", float64(histA[i].Trust)),
			fmt.Sprintf("%.3f", float64(histB[i].Trust)))
	}
	finalA := float64(histA[len(histA)-1].Trust)
	finalB := float64(histB[len(histB)-1].Trust)
	minB := 1.0
	for _, p := range histB {
		if float64(p.Trust) < minB {
			minB = float64(p.Trust)
		}
	}

	return &Result{
		ID:     "E5",
		Figure: "Fig. 9 — LRU assessment trajectories (trust levels)",
		Table:  t.String(),
		Metrics: map[string]float64{
			"final_trust_A": finalA,
			"final_trust_B": finalB,
			"min_trust_B":   minB,
			"fig9_shape_ok": b2f(finalA < 0.4 && finalB > 0.9 && minB < 1),
		},
	}
}

// e5Run is E5's run. Trajectory A: wearout on component 0. Trajectory B:
// an EMI burst over components 2 and 3 early in the run.
func e5Run(seed uint64) run {
	return run{seed: seed, rounds: 4000, plan: append(
		plan(ms(400), pack.FaultSpec{Kind: "wearout", Component: 0, TauMS: 500, BaseRatePerHour: 3600 * 4, MaxFactor: 40, DriftPerHour: 3600 * 20}),
		plan(ms(600), pack.FaultSpec{Kind: "emi-burst", Component: -1, X: 5.5, Radius: 1.2, DurationMS: 10, Bits: 4})...)}
}
