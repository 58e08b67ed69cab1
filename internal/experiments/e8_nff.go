package experiments

import (
	"fmt"

	"decos/internal/maintenance"
	"decos/internal/scenario"
)

// E8NFF is the headline experiment (paper Sections I and V): across a
// mixed-fault fleet campaign, the no-fault-found ratio, action accuracy,
// missed faults and removal cost of the DECOS integrated diagnostic
// architecture versus the conventional OBD baseline. The paper's claim is
// qualitative — the maintenance-oriented classification reduces NFF
// removals — and the measured shape must show DECOS with a much lower NFF
// ratio and miss rate at comparable or lower cost per fixed fault.
func E8NFF(seed uint64) *Result {
	c := scenario.Campaign{
		Vehicles:       150,
		Rounds:         3000,
		Seed:           seed,
		FaultFreeShare: 0.2,
	}
	res := c.Run()

	t := newTable("metric", "DECOS diagnostic DAS", "OBD baseline")
	t.row("incidents audited", res.DECOS.Total, res.OBD.Total)
	t.row("classification accuracy", pct(res.DECOS.ClassAccuracy()), pct(res.OBD.ClassAccuracy()))
	t.row("action accuracy", pct(res.DECOS.ActionAccuracy()), pct(res.OBD.ActionAccuracy()))
	t.row("hardware removals", res.DECOS.TotalRemovals, res.OBD.TotalRemovals)
	t.row("no-fault-found removals", res.DECOS.NFFRemovals, res.OBD.NFFRemovals)
	t.row("NFF ratio", pct(res.DECOS.NFFRatio()), pct(res.OBD.NFFRatio()))
	t.row("missed faults", res.DECOS.Missed, res.OBD.Missed)
	t.row("removal cost ($800/LRU)", fmt.Sprintf("$%.0f", res.DECOS.Cost), fmt.Sprintf("$%.0f", res.OBD.Cost))
	t.row("cost per correctly fixed fault", costPerFix(res.DECOS), costPerFix(res.OBD))
	t.row("false alarms (healthy cars)", res.DECOSFalseAlarms, res.OBDFalseAlarms)

	tbl := t.String()
	tbl += "\nDECOS confusion (truth → diagnosed):\n" + res.DECOS.Format()

	return &Result{
		ID:     "E8",
		Figure: "Sections I/V — NFF ratio and maintenance cost vs OBD baseline",
		Table:  tbl,
		Metrics: map[string]float64{
			"decos_nff_ratio":    res.DECOS.NFFRatio(),
			"obd_nff_ratio":      res.OBD.NFFRatio(),
			"decos_action_acc":   res.DECOS.ActionAccuracy(),
			"obd_action_acc":     res.OBD.ActionAccuracy(),
			"decos_miss_ratio":   res.DECOS.MissRatio(),
			"obd_miss_ratio":     res.OBD.MissRatio(),
			"decos_cost":         res.DECOS.Cost,
			"obd_cost":           res.OBD.Cost,
			"decos_false_alarms": float64(res.DECOSFalseAlarms),
			"obd_false_alarms":   float64(res.OBDFalseAlarms),
		},
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// costPerFix divides the removal spend by the number of correctly handled
// incidents — the economic lens on the NFF problem: wasted removals and
// missed faults both inflate it.
func costPerFix(r *maintenance.Report) string {
	if r.CorrectActions == 0 {
		return "∞"
	}
	return fmt.Sprintf("$%.0f", r.Cost/float64(r.CorrectActions))
}
