package core

import "fmt"

// MaintenanceAction is the service-station consequence of a classified
// fault (paper Fig. 11 and Section V-C).
type MaintenanceAction int

const (
	// ActionNone: component-external faults are transient; no maintenance
	// action is taken (replacing the FRU would only raise the NFF ratio).
	ActionNone MaintenanceAction = iota
	// ActionInspectConnector: borderline faults require closer inspection
	// of connectors/wiring; replacement only on wearout phenomena
	// (fretting, corrosion).
	ActionInspectConnector
	// ActionReplaceComponent: component-internal (= job-external) faults
	// are eliminated only by replacing the component (ECU / LRM).
	ActionReplaceComponent
	// ActionUpdateConfiguration: job-borderline faults require an update
	// of the virtual-network configuration data of the DAS.
	ActionUpdateConfiguration
	// ActionInspectTransducer: sensor/actuator faults require inspection
	// and possibly transducer replacement.
	ActionInspectTransducer
	// ActionUpdateSoftware: software design faults require a job software
	// update, if the OEM has acknowledged the fault and distributed a
	// corrected version.
	ActionUpdateSoftware
	// ActionForwardToOEM: software fault without an available update —
	// field data is forwarded for fleet analysis (engineering feedback).
	ActionForwardToOEM
	// ActionInvestigate: the evidence supports no classification; manual
	// troubleshooting is required (the costly path the model minimizes).
	ActionInvestigate
	// NumActions is the number of maintenance actions.
	NumActions
)

func (a MaintenanceAction) String() string {
	switch a {
	case ActionNone:
		return "no-action"
	case ActionInspectConnector:
		return "inspect-connector"
	case ActionReplaceComponent:
		return "replace-component"
	case ActionUpdateConfiguration:
		return "update-configuration"
	case ActionInspectTransducer:
		return "inspect-transducer"
	case ActionUpdateSoftware:
		return "update-software"
	case ActionForwardToOEM:
		return "forward-to-oem"
	case ActionInvestigate:
		return "investigate"
	default:
		return fmt.Sprintf("MaintenanceAction(%d)", int(a))
	}
}

// Removal reports whether the action removes a line-replaceable unit — the
// events whose cost the paper quantifies ($800 per LRU removal) and whose
// unnecessary instances constitute the no-fault-found problem. Transducer
// or connector inspections are workshop labour, not LRU removals.
func (a MaintenanceAction) Removal() bool {
	return a == ActionReplaceComponent
}

// ActionFor maps a diagnosed fault class to the maintenance action of the
// paper's Fig. 11. updateAvailable states whether the OEM has released a
// corrected job version (relevant for software faults only).
func ActionFor(c FaultClass, updateAvailable bool) MaintenanceAction {
	switch c {
	case ComponentExternal:
		return ActionNone
	case ComponentBorderline:
		return ActionInspectConnector
	case ComponentInternal, JobExternal:
		return ActionReplaceComponent
	case JobBorderline:
		return ActionUpdateConfiguration
	case JobInherentSensor:
		return ActionInspectTransducer
	case JobInherentSoftware:
		if updateAvailable {
			return ActionUpdateSoftware
		}
		return ActionForwardToOEM
	case JobInherent:
		// Without job-internal information the inherent verdict cannot
		// separate transducer from software; the technician inspects the
		// transducer first (Fig. 11's "further inspection").
		return ActionInspectTransducer
	default:
		return ActionInvestigate
	}
}

// TrustLevel is the per-FRU health score the diagnostic DAS outputs
// (Section II-D): 1 = full conformance with the specification, 0 = certain
// violation. It is the basis for the maintenance engineer's replace/keep
// decision (Fig. 9).
type TrustLevel float64

// Clamp bounds the trust level to [0, 1].
func (t TrustLevel) Clamp() TrustLevel {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}
