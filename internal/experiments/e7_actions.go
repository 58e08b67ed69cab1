package experiments

import (
	"context"
	"strconv"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/maintenance"
	"decos/internal/scenario"
)

// E7Actions regenerates the maintenance-action table of the paper's
// Fig. 11 as a measurement: for repeated injections of every fault kind,
// the distribution of actions the diagnostic DAS derives, and the fraction
// matching the action the true class requires.
func E7Actions(seed uint64) *Result {
	const perKind = 3
	kinds := scenario.AllKinds()
	t := newTable("injected kind", "true class", "required action", "derived action(s)", "correct")
	metrics := map[string]float64{}
	totalCorrect, total := 0, 0

	for _, kind := range kinds {
		actions := map[core.MaintenanceAction]int{}
		var truth core.FaultClass
		correct := 0
		for rep := 0; rep < perKind; rep++ {
			sys, act := faultedFig10(seed+uint64(kind)*1009+uint64(rep)*97, diagnosis.Options{}, kind)
			truth = act.Class
			sys.Cluster.RunRounds(context.Background(), 3000)
			r := maintenance.Evaluate(sys.Injector.Ledger(), sys.Diag)
			out := r.Outcomes[0]
			actions[out.Action]++
			if out.CorrectAction {
				correct++
			}
		}
		totalCorrect += correct
		total += perKind
		t.row(kind.String(), truth.String(),
			core.ActionFor(truth, false).String(),
			formatActionDist(actions),
			frac(correct, perKind))
		metrics["correct_"+kind.String()] = float64(correct) / perKind
	}
	metrics["action_accuracy"] = float64(totalCorrect) / float64(total)

	return &Result{
		ID:      "E7",
		Figure:  "Fig. 11 — maintenance action per fault class, measured",
		Table:   t.String(),
		Metrics: metrics,
	}
}

func formatActionDist(actions map[core.MaintenanceAction]int) string {
	out := ""
	for a := core.MaintenanceAction(0); a <= core.ActionInvestigate; a++ {
		if n := actions[a]; n > 0 {
			if out != "" {
				out += ", "
			}
			out += a.String()
			if n > 1 {
				out += "×" + strconv.Itoa(n)
			}
		}
	}
	if out == "" {
		return "-"
	}
	return out
}

func frac(a, b int) string {
	return strconv.Itoa(a) + "/" + strconv.Itoa(b)
}
