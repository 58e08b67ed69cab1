// Package maintenance closes the loop of the reproduction: it plays the
// service station. Given the fault injector's ground-truth ledger and a
// diagnostic advisor (the DECOS diagnostic DAS or the OBD baseline), it
// determines the maintenance action actually taken per incident, audits it
// against the action the true fault class requires (paper Fig. 11), and
// accumulates the paper's headline metrics: the no-fault-found ratio and
// the removal cost at $800 per LRU removal.
package maintenance

import (
	"fmt"
	"sort"
	"strings"

	"decos/internal/core"
	"decos/internal/faults"
)

// RemovalCost is the average cost of removing a single line-replaceable
// unit (paper Section I: $800 per removal).
const RemovalCost = 800.0

// Advisor is the diagnostic interface the service technician consults: the
// recommended maintenance action for a FRU, the diagnosed fault class, and
// whether any finding exists.
type Advisor interface {
	Advise(f core.FRU) (core.MaintenanceAction, core.FaultClass, bool)
}

// Outcome is the audited result of one fault activation.
type Outcome struct {
	// Activation is the audited ground-truth entry; nil when the audit
	// runs from trace data (off-line warranty analysis) where only the
	// truth class survives.
	Activation *faults.Activation
	// Truth is the ground-truth class the outcome was judged against.
	Truth core.FaultClass
	// Diagnosed is the advisor's class for the culprit (or the affected
	// FRU for external faults); ClassUnknown when no finding existed.
	Diagnosed core.FaultClass
	// Action is the maintenance action taken.
	Action core.MaintenanceAction
	// CorrectClass reports whether the diagnosis matches ground truth
	// under the model's equivalences.
	CorrectClass bool
	// CorrectAction reports whether the action taken is the one the true
	// class requires.
	CorrectAction bool
	// NFF flags a hardware removal that cannot fix the true fault — the
	// unit will be retested OK at the OEM bench (no fault found).
	NFF bool
	// Missed flags a real fault needing maintenance that received none.
	Missed bool
	// Cost of the action in dollars (removals only).
	Cost float64
}

// Report aggregates outcomes of a campaign.
type Report struct {
	Outcomes []Outcome
	// Confusion[truth][diagnosed] counts classifications.
	Confusion map[core.FaultClass]map[core.FaultClass]int

	Total          int
	CorrectClass   int
	CorrectActions int
	NFFRemovals    int
	TotalRemovals  int
	Missed         int
	Cost           float64
}

// NFFRatio returns the fraction of hardware removals that were
// no-fault-found.
func (r *Report) NFFRatio() float64 {
	if r.TotalRemovals == 0 {
		return 0
	}
	return float64(r.NFFRemovals) / float64(r.TotalRemovals)
}

// ClassAccuracy returns the fraction of activations whose diagnosis
// matched ground truth.
func (r *Report) ClassAccuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.CorrectClass) / float64(r.Total)
}

// ActionAccuracy returns the fraction of activations that received the
// action their true class requires.
func (r *Report) ActionAccuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.CorrectActions) / float64(r.Total)
}

// MissRatio returns the fraction of maintenance-requiring activations left
// unaddressed.
func (r *Report) MissRatio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Total)
}

// requiredAction returns the Fig. 11 action for the true class.
func requiredAction(truth core.FaultClass) core.MaintenanceAction {
	// Ground truth never carries the merged verdict, and for auditing we
	// treat a software fault without an update as correctly handled by
	// forward-to-OEM (no update assumed available).
	return core.ActionFor(truth, false)
}

// actionAcceptable reports whether the taken action correctly addresses
// the true class (allowing the equivalences of the model).
func actionAcceptable(truth core.FaultClass, action core.MaintenanceAction) bool {
	switch truth {
	case core.ComponentExternal:
		return action == core.ActionNone
	case core.ComponentBorderline:
		return action == core.ActionInspectConnector
	case core.ComponentInternal, core.JobExternal:
		return action == core.ActionReplaceComponent
	case core.JobBorderline:
		return action == core.ActionUpdateConfiguration
	case core.JobInherentSoftware:
		// Update, forward for fleet analysis, or transducer-first
		// inspection (the merged inherent verdict) all address the job.
		return action == core.ActionUpdateSoftware || action == core.ActionForwardToOEM ||
			action == core.ActionInspectTransducer
	case core.JobInherentSensor:
		return action == core.ActionInspectTransducer
	}
	return false
}

// nff reports whether taking the action for the true class removes
// hardware that would retest OK.
func nff(truth core.FaultClass, action core.MaintenanceAction) bool {
	if !action.Removal() {
		return false
	}
	switch truth {
	case core.ComponentInternal, core.JobExternal:
		return action != core.ActionReplaceComponent
	case core.JobInherentSensor:
		// Replacing the whole ECU for a transducer fault removes a good
		// ECU; inspecting/replacing the transducer is correct.
		return action == core.ActionReplaceComponent
	default:
		// External, borderline, configuration and software faults: any
		// hardware removal is a no-fault-found removal.
		return true
	}
}

// Evaluate audits one campaign: for every ledger activation, consult the
// advisor about the culprit (or, for external faults, the affected FRUs)
// and judge the result.
func Evaluate(ledger []*faults.Activation, adv Advisor) *Report {
	audit := ArmAudit{Report: Report{Confusion: make(map[core.FaultClass]map[core.FaultClass]int)}}
	for _, a := range ledger {
		audit.Audit(a, adv)
	}
	return &audit.Report
}

// Record accumulates one audited outcome into the report's counters and
// confusion matrix — the single accumulation path shared by the in-process
// campaign audit and the trace-fed warranty analysis.
func (r *Report) Record(out Outcome) {
	if r.Confusion == nil {
		r.Confusion = make(map[core.FaultClass]map[core.FaultClass]int)
	}
	r.Outcomes = append(r.Outcomes, out)
	r.Total++
	if r.Confusion[out.Truth] == nil {
		r.Confusion[out.Truth] = make(map[core.FaultClass]int)
	}
	r.Confusion[out.Truth][out.Diagnosed]++
	if out.CorrectClass {
		r.CorrectClass++
	}
	if out.CorrectAction {
		r.CorrectActions++
	}
	if out.Action.Removal() {
		r.TotalRemovals++
	}
	if out.NFF {
		r.NFFRemovals++
	}
	if out.Missed {
		r.Missed++
	}
	r.Cost += out.Cost
}

// AuditSubject returns the FRU an audit judges an activation by: the
// culprit, or the most-affected FRU (first listed) for external faults.
func AuditSubject(a *faults.Activation) core.FRU {
	if a.Culprit == faults.NoCulprit && len(a.Affected) > 0 {
		return a.Affected[0]
	}
	return a.Culprit
}

// Judge audits one classified incident given only the ground-truth class,
// the diagnosed class and the action taken — the pure audit rule, usable
// without an activation (off-line trace analysis). found=false states that
// the advisor had no finding for the subject.
func Judge(truth, diagnosed core.FaultClass, action core.MaintenanceAction, found bool) Outcome {
	if !found {
		action = core.ActionNone
		diagnosed = core.ClassUnknown
	}
	out := Outcome{
		Truth:     truth,
		Diagnosed: diagnosed,
		Action:    action,
	}
	out.CorrectClass = truth.Matches(diagnosed)
	out.CorrectAction = actionAcceptable(truth, action)
	out.NFF = nff(truth, action)
	out.Missed = requiredAction(truth) != core.ActionNone && action == core.ActionNone
	if action.Removal() {
		out.Cost = RemovalCost
	}
	return out
}

// Audit consults the advisor about one ground-truth activation and
// judges its advice. The outcome holds the verdict, not the advisor, so
// it stays valid once the advisor moves on to another vehicle.
func Audit(a *faults.Activation, adv Advisor) Outcome {
	action, diagnosed, found := adv.Advise(AuditSubject(a))
	out := Judge(a.Class, diagnosed, action, found)
	out.Activation = a
	return out
}

// Format renders the report as a human-readable table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "incidents: %d  class-accuracy: %.1f%%  action-accuracy: %.1f%%\n",
		r.Total, 100*r.ClassAccuracy(), 100*r.ActionAccuracy())
	fmt.Fprintf(&b, "removals: %d  no-fault-found: %d (NFF ratio %.1f%%)  missed: %d  cost: $%.0f\n",
		r.TotalRemovals, r.NFFRemovals, 100*r.NFFRatio(), r.Missed, r.Cost)
	var truths []core.FaultClass
	for t := range r.Confusion {
		truths = append(truths, t)
	}
	sort.Slice(truths, func(i, j int) bool { return truths[i] < truths[j] })
	for _, truth := range truths {
		row := r.Confusion[truth]
		var diags []core.FaultClass
		for d := range row {
			diags = append(diags, d)
		}
		sort.Slice(diags, func(i, j int) bool { return diags[i] < diags[j] })
		fmt.Fprintf(&b, "  %-24s →", truth)
		for _, d := range diags {
			fmt.Fprintf(&b, " %s:%d", d, row[d])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
