package experiments

import (
	"context"
	"fmt"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/scenario"
)

// E2Chain traces the fault-error-failure chain (paper Fig. 3) end to end
// for one representative injection per fault class of the model overview
// (Fig. 6): the injected fault manifests as errors and LIF failures, and
// the diagnostic DAS reverses the chain back to a FRU-level classification.
func E2Chain(seed uint64) *Result {
	kinds := []scenario.FaultKind{
		scenario.KindEMI, scenario.KindSEU, scenario.KindConnectorTx,
		scenario.KindConnectorRx, scenario.KindWearout, scenario.KindIntermittent,
		scenario.KindPermanent, scenario.KindQuartz, scenario.KindConfig,
		scenario.KindBohrbug, scenario.KindHeisenbug, scenario.KindJobCrash,
		scenario.KindSensorStuck, scenario.KindSensorDrift, scenario.KindPowerDip,
	}
	t := newTable("injected kind", "true class", "chain", "diagnosed", "pattern", "match")
	matches := 0
	for i, kind := range kinds {
		sys, act := faultedFig10(seed+uint64(i)*131, diagnosis.Options{}, kind)
		sys.Cluster.RunRounds(context.Background(), 3000)

		subject := act.Culprit
		if subject == core.FRU(noCulprit()) && len(act.Affected) > 0 {
			subject = act.Affected[0]
		}
		v, ok := sys.Diag.VerdictOf(subject)
		diagClass := core.ClassUnknown
		pattern := "-"
		if ok {
			diagClass = v.Class
			pattern = v.Pattern
		}
		match := act.Class.Matches(diagClass)
		if match {
			matches++
		}
		chain := "latent"
		if act.Chain.Complete() {
			root, _ := act.Chain.Root()
			fails := act.Chain.Failures()
			chain = fmt.Sprintf("%s → %d failures", root.Detail, len(fails))
		}
		t.row(kind.String(), act.Class.String(), chain, diagClass.String(), pattern, match)
	}
	return &Result{
		ID:     "E2",
		Figure: "Fig. 3/6 — fault-error-failure chain per fault class",
		Table:  t.String(),
		Metrics: map[string]float64{
			"classes":  float64(len(kinds)),
			"matched":  float64(matches),
			"accuracy": float64(matches) / float64(len(kinds)),
		},
	}
}

func noCulprit() core.FRU { return core.FRU{Component: -1} }
