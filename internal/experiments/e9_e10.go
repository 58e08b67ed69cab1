package experiments

import (
	"context"
	"fmt"
	"time"

	"decos/internal/core"
	"decos/internal/pack"
	"decos/internal/scenario"
)

// E9MultiFault stresses the classification with simultaneous faults per
// vehicle — the hard case of FRU-level diagnosis, where overlapping
// manifestations must still be attributed to distinct FRUs. The paper's
// model assumes faults are rare enough to be analysed largely in
// isolation; this experiment quantifies how gracefully the implementation
// degrades when that assumption weakens.
func E9MultiFault(seed uint64) *Result {
	t := newTable("faults/vehicle", "incidents", "class accuracy", "action accuracy", "NFF ratio", "missed")
	metrics := map[string]float64{}
	for _, k := range []int{1, 2, 3} {
		c := scenario.Campaign{
			Vehicles:         25,
			Rounds:           3000,
			Seed:             seed + uint64(k)*53,
			FaultFreeShare:   0,
			FaultsPerVehicle: k,
		}
		res := c.Run()
		t.row(k, res.DECOS.Total,
			pct(res.DECOS.ClassAccuracy()), pct(res.DECOS.ActionAccuracy()),
			pct(res.DECOS.NFFRatio()), res.DECOS.Missed)
		metrics[fmt.Sprintf("class_acc_k%d", k)] = res.DECOS.ClassAccuracy()
		metrics[fmt.Sprintf("action_acc_k%d", k)] = res.DECOS.ActionAccuracy()
		metrics[fmt.Sprintf("nff_k%d", k)] = res.DECOS.NFFRatio()
	}
	return &Result{
		ID:      "E9",
		Figure:  "extension — simultaneous faults per vehicle (degradation study)",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// E10Scale measures how the simulator and the diagnostic architecture
// scale with cluster size: simulation throughput (TDMA rounds per second
// of wall clock) and classification correctness on a grid of n components
// with a connector fault injected mid-chain.
func E10Scale(seed uint64) *Result {
	t := newTable("components", "rounds/s", "symptoms", "verdict on culprit", "correct")
	metrics := map[string]float64{}
	for _, n := range e10Sizes {
		r := e10Run(seed, n)
		sys := r.build()
		start := time.Now()
		sys.Cluster.RunRounds(context.Background(), r.rounds)
		elapsed := time.Since(start).Seconds()
		rps := float64(r.rounds) / elapsed
		v, ok := sys.Diag.VerdictOf(core.HardwareFRU(r.plan[0].Fault.Component))
		verdict := "-"
		correct := false
		if ok {
			verdict = fmt.Sprintf("%s (%s)", v.Class, v.Pattern)
			correct = v.Class == core.ComponentBorderline
		}
		t.row(n, fmt.Sprintf("%.0f", rps), sys.Diag.Assessor.SymptomsReceived, verdict, correct)
		metrics[fmt.Sprintf("rps_n%d", n)] = rps
		metrics[fmt.Sprintf("correct_n%d", n)] = b2f(correct)
	}
	return &Result{
		ID:      "E10",
		Figure:  "extension — cluster-size scalability of simulator and diagnosis",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// e10Sizes are the grid sizes E10 measures.
var e10Sizes = []int{4, 8, 16, 32}

// e10Run is E10's run on the n-component grid: the connector of the
// mid-chain component frets.
func e10Run(seed uint64, n int) run {
	return run{seed: seed + uint64(n), grid: n, rounds: 2000,
		plan: plan(ms(100), pack.FaultSpec{Kind: "connector-tx", Component: n / 2, Rate: 0.3})}
}
