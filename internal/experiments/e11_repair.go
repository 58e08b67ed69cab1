package experiments

import (
	"context"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/maintenance"
	"decos/internal/scenario"
	"decos/internal/tt"
)

// E11RepairLoop closes the maintenance loop the paper motivates: "from a
// maintenance point of view the most important question is whether a
// replacement of a particular component will put an end to spurious system
// malfunctions". For every fault kind: run a vehicle, take it to the
// workshop, apply the advised maintenance action, clear the diagnostic
// memory, run again — and measure objectively (LIF-level symptom activity)
// whether the malfunction is gone. DECOS advice fixes the car; OBD advice
// frequently replaces hardware that cannot help (the customer returns) or
// finds nothing at all.
func E11RepairLoop(seed uint64) *Result {
	kinds := []scenario.FaultKind{
		scenario.KindSEU, scenario.KindConnectorTx, scenario.KindConnectorRx,
		scenario.KindWearout, scenario.KindIntermittent, scenario.KindPermanent,
		scenario.KindQuartz, scenario.KindConfig, scenario.KindBohrbug,
		scenario.KindHeisenbug, scenario.KindSensorStuck, scenario.KindPowerDip,
	}
	// Residual symptom budget: a fixed post-repair window may still carry
	// a handful of stale/startup records.
	const residualBudget = 25

	opts := diagnosis.Options{
		JobInternalAssertions: true,
		UpdateAvailable:       func(core.FRU) bool { return true },
	}

	type arm struct {
		fixed    int
		stillBad int
		noAction int
		removals int
	}
	run := func(kind scenario.FaultKind, rep int, useOBD bool) (fixedAction core.MaintenanceAction, stillFailing bool, removal bool) {
		sys, act := faultedFig10(seed+uint64(kind)*211+uint64(rep)*31, opts, kind)
		sys.Cluster.RunRounds(context.Background(), 3000)

		subject := act.Culprit
		if subject.Component < 0 && len(act.Affected) > 0 {
			subject = act.Affected[0]
		}
		var action core.MaintenanceAction
		var found bool
		if useOBD {
			action, _, found = sys.OBD.Advise(subject)
		} else {
			action, _, found = sys.Diag.Advise(subject)
		}
		if !found {
			action = core.ActionNone
		}
		maintenance.Apply(act, action)

		// Workshop bookkeeping: clear diagnostic memory for the serviced
		// FRU either way.
		if idx, ok := sys.Diag.Reg.Index(subject); ok {
			sys.Diag.Assessor.ClearVerdict(idx)
		}
		sys.OBD.Clear(tt.NodeID(subject.Component))

		// Settling window: drain diagnostic-network backlog and let stale
		// port state refresh before judging the repair.
		sys.Cluster.RunRounds(context.Background(), 500)
		// Post-repair observation window: objective LIF-level evidence.
		before := sys.Diag.Assessor.SymptomsReceived
		sys.Cluster.RunRounds(context.Background(), 2000)
		residual := sys.Diag.Assessor.SymptomsReceived - before
		return action, residual > residualBudget, action.Removal()
	}

	t := newTable("fault kind", "DECOS action", "fixed?", "OBD action", "fixed?")
	var decos, obd arm
	for _, kind := range kinds {
		var dAct, oAct core.MaintenanceAction
		var dBad, oBad bool
		for rep := 0; rep < 2; rep++ {
			a, bad, rem := run(kind, rep, false)
			dAct = a
			dBad = dBad || bad
			if bad {
				decos.stillBad++
			} else {
				decos.fixed++
			}
			if rem {
				decos.removals++
			}
			if a == core.ActionNone {
				decos.noAction++
			}
			a, bad, rem = run(kind, rep, true)
			oAct = a
			oBad = oBad || bad
			if bad {
				obd.stillBad++
			} else {
				obd.fixed++
			}
			if rem {
				obd.removals++
			}
			if a == core.ActionNone {
				obd.noAction++
			}
		}
		t.row(kind.String(), dAct.String(), !dBad, oAct.String(), !oBad)
	}
	total := float64(decos.fixed + decos.stillBad)
	tbl := t.String()

	return &Result{
		ID:     "E11",
		Figure: "extension — repair effectiveness: does the advised action end the malfunction?",
		Table:  tbl,
		Metrics: map[string]float64{
			"decos_fix_rate": float64(decos.fixed) / total,
			"obd_fix_rate":   float64(obd.fixed) / total,
			"decos_removals": float64(decos.removals),
			"obd_removals":   float64(obd.removals),
			"decos_returns":  float64(decos.stillBad),
			"obd_returns":    float64(obd.stillBad),
			"obd_no_finding": float64(obd.noAction),
		},
	}
}
