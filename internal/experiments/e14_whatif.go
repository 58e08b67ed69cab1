package experiments

import (
	"context"
	"fmt"
	"strings"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/whatif"
)

// E14Whatif measures counterfactual divergence localization: for every
// hardware-attributable fault kind of the E12 sweep, record a
// checkpointed run, then ask decos-whatif's question in reverse — remove
// the injected fault from a replica restored before its activation and
// check that the first divergent event names the injected component.
// Because restores are byte-identical, the first divergence is the
// earliest instant at which the fault is observable at all; localization
// accuracy here is the ceiling any symptom-based diagnoser can reach.
//
// A fault's signature differs by kind, so "names the component" is
// structural (see localizes): tx-side faults diverge in a frame the
// culprit sends, internal faults in a symptom about a job the culprit
// hosts, rx-side faults in an accusation the culprit is the lone
// observer of. A run with no divergence at all would be the masked case —
// the fault never observable, the counterfactual face of the paper's
// no-fault-found problem. A removed fault does nothing (the injector
// makes a deactivated activation inert), so even a one-shot SEU diverges
// in the one frame it would have corrupted.
func E14Whatif(seed uint64) *Result {
	kinds := []scenario.FaultKind{
		scenario.KindSEU, scenario.KindConnectorTx, scenario.KindConnectorRx,
		scenario.KindWearout, scenario.KindIntermittent, scenario.KindPermanent,
		scenario.KindQuartz, scenario.KindPowerDip,
	}
	const (
		seeds   = 3
		rounds  = 800
		ckptAt  = 100 // checkpoint round the replay restores from
		faultAt = sim.Time(150 * sim.Millisecond)
	)

	t := newTable("fault kind", "diverged", "localized", "of", "mean lag (ms)")
	metrics := map[string]float64{}
	totalDiverged, totalLocalized, total := 0, 0, 0

	for _, kind := range kinds {
		diverged, localized, lagMS, lagN := 0, 0, 0.0, 0
		for s := 0; s < seeds; s++ {
			sd := seed + uint64(kind)*7919 + uint64(s)*433
			plan := []scenario.InjectPlan{{Kind: kind, At: faultAt}}
			var ckpt []byte
			sys := scenario.Fig10(sd, diagnosis.Options{}, plan,
				engine.WithCheckpointSink(func(round int64, data []byte) error {
					if round+1 == ckptAt {
						ckpt = append([]byte(nil), data...)
					}
					return nil
				}, ckptAt))
			sys.Cluster.RunRounds(context.Background(), rounds)
			act := sys.Injector.Ledger()[0]
			comp := act.Culprit.Component
			if comp < 0 && len(act.Affected) > 0 {
				comp = act.Affected[0].Component
			}
			rep, err := whatif.Run(whatif.Config{
				Seed: sd, Plan: plan, Rounds: rounds, Checkpoint: ckpt,
				Hyp: whatif.Hypothesis{Kind: whatif.Remove, Target: act.ID},
			})
			if err != nil {
				panic(fmt.Sprintf("E14 %s seed %d: %v", kind, sd, err))
			}
			if rep.Div == nil {
				continue
			}
			diverged++
			if localizes(rep.Div, comp) {
				localized++
				e := rep.Div.Factual
				if e == nil {
					e = rep.Div.Counter
				}
				if e.T > 0 {
					lagMS += float64(e.T-int64(faultAt)) / 1000
					lagN++
				}
			}
		}
		totalDiverged += diverged
		totalLocalized += localized
		total += seeds
		lag := "-"
		if lagN > 0 {
			lag = fmt.Sprintf("%.1f", lagMS/float64(lagN))
		}
		t.row(kind.String(), diverged, localized, seeds, lag)
		metrics["loc_"+kind.String()] = float64(localized) / seeds
		metrics["div_"+kind.String()] = float64(diverged) / seeds
	}
	metrics["diverged"] = float64(totalDiverged) / float64(total)
	if totalDiverged > 0 {
		metrics["localization"] = float64(totalLocalized) / float64(totalDiverged)
	}
	return &Result{
		ID:      "E14",
		Figure:  "extension — counterfactual divergence localization (decos-whatif)",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// localizes reports whether the first divergence names component comp in
// any of the three structural shapes a component fault manifests as.
func localizes(d *whatif.Divergence, comp int) bool {
	if comp < 0 {
		return false
	}
	if d.FRU == core.HardwareFRU(comp).String() {
		return true // the culprit's own frame or verdict diverged
	}
	if strings.HasSuffix(d.FRU, fmt.Sprintf("@%d]", comp)) {
		return true // a job hosted on the culprit diverged
	}
	e := d.Factual
	if e == nil {
		e = d.Counter
	}
	// Rx-side faults invert the accusation: the culprit is the lone
	// observer reporting omissions from its healthy peers.
	return e.Kind == "symptom" && e.Observer != nil && *e.Observer == comp
}
