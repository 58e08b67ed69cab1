package maintenance

import (
	"decos/internal/core"
	"decos/internal/faults"
)

// ArmAudit accumulates one diagnostic arm's audited performance: the
// Fig. 11 audit over ground-truth faults plus the false-alarm count over
// fault-free vehicles. It is the single adviser-side accumulation path
// shared by the in-process campaign audit and the trace-fed warranty
// engine — the fleet side runs the same audit code over replayed
// evidence that the onboard path runs live.
type ArmAudit struct {
	Report Report
	// FalseAlarms counts removal recommendations issued on fault-free
	// vehicles: hardware that would be pulled with nothing wrong on the
	// vehicle at all.
	FalseAlarms int
}

// Audit consults the advisor about one ground-truth activation and
// judges the result — the in-process form, where the activation is at
// hand.
func (a *ArmAudit) Audit(act *faults.Activation, adv Advisor) {
	a.Report.Record(Audit(act, adv))
}

// Judged folds one incident judged from the fields that survive in a
// trace — the off-line warranty form of Audit.
func (a *ArmAudit) Judged(truth, diagnosed core.FaultClass, action core.MaintenanceAction, found bool) {
	a.Report.Record(Judge(truth, diagnosed, action, found))
}

// HealthyAdvice audits one piece of advice about a subject on a
// fault-free vehicle: any removal recommendation is a false alarm.
func (a *ArmAudit) HealthyAdvice(action core.MaintenanceAction) {
	if action.Removal() {
		a.FalseAlarms++
	}
}
