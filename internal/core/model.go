// Package core defines the maintenance-oriented fault model of the DECOS
// integrated diagnostic architecture — the primary contribution of the
// reproduced paper.
//
// The model stops the fault-error-failure recursion at the level of the
// field-replaceable unit (FRU): a complete component for hardware faults and
// a job for software faults (paper Section III-A/B). Experienced failures
// are classified into the fault classes of the paper's Fig. 6; each class
// maps to exactly one maintenance action (Fig. 11). Characteristic
// manifestations of fault types on the distributed state are described by
// fault patterns over the time, space and value dimensions (Fig. 8), which
// the diagnostic subsystem encodes as Out-of-Norm Assertions.
package core

import "fmt"

// FaultClass is the maintenance-oriented fault classification of Fig. 6.
// The boundary classification (external / borderline / internal) is applied
// at the component FRU for hardware faults and refined inside the component
// at the job FRU for software faults.
type FaultClass int

const (
	// ClassUnknown is the verdict when the diagnostic evidence does not
	// support any classification.
	ClassUnknown FaultClass = iota

	// ComponentExternal faults originate outside the component boundary
	// and have no permanent effect on the component (EMI bursts, single
	// event upsets, environmental stress transients).
	ComponentExternal
	// ComponentBorderline faults cannot be attributed to either side of
	// the component boundary: connector and wiring faults.
	ComponentBorderline
	// ComponentInternal faults originate inside the component FRU (PCB
	// crack, defective quartz, IC wearout, permanent silicon defects) and
	// can only be eliminated by replacing the component.
	ComponentInternal

	// JobExternal faults affect a job from inside its component but
	// outside the job boundary; observing correlated job-external faults
	// of several jobs on one component implies a component-internal
	// hardware fault.
	JobExternal
	// JobBorderline faults are configuration faults of the architectural
	// services at the job's ports (mis-dimensioned queues, wrong virtual
	// network parameters).
	JobBorderline
	// JobInherentSoftware faults are software design faults (Bohrbugs and
	// Heisenbugs) inside the job.
	JobInherentSoftware
	// JobInherentSensor faults are transducer (sensor/actuator) faults of
	// the job's exclusive I/O hardware. Without job-internal information
	// they are indistinguishable from software faults (paper Section
	// III-D); the merged verdict is JobInherent.
	JobInherentSensor
	// JobInherent is the merged inherent verdict available from interface
	// state alone.
	JobInherent

	// NumFaultClasses is the number of fault classes.
	NumFaultClasses
)

// String returns the paper's name for the class.
func (c FaultClass) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ComponentExternal:
		return "component-external"
	case ComponentBorderline:
		return "component-borderline"
	case ComponentInternal:
		return "component-internal"
	case JobExternal:
		return "job-external"
	case JobBorderline:
		return "job-borderline"
	case JobInherentSoftware:
		return "job-inherent-software"
	case JobInherentSensor:
		return "job-inherent-sensor"
	case JobInherent:
		return "job-inherent"
	default:
		return fmt.Sprintf("FaultClass(%d)", int(c))
	}
}

// Matches reports whether a diagnosed class d is a correct verdict for
// ground truth c, honouring the model's equivalences: a job-external fault
// IS the manifestation of a component-internal fault (Section IV-B.3), and
// the merged JobInherent verdict is correct for both inherent subclasses.
func (c FaultClass) Matches(d FaultClass) bool {
	if c == d {
		return true
	}
	switch c {
	case ComponentInternal:
		return d == JobExternal
	case JobExternal:
		return d == ComponentInternal
	case JobInherentSoftware, JobInherentSensor:
		return d == JobInherent
	}
	return false
}

// Persistence classifies how a fault manifests over time — the property the
// α-count mechanism discriminates.
type Persistence int

const (
	// Transient faults manifest once or briefly and disappear.
	Transient Persistence = iota
	// Intermittent faults recur at the same location (connector fretting,
	// solder cracks, wearout).
	Intermittent
	// Permanent faults persist until repair.
	Permanent
	// NumPersistences is the number of persistence values.
	NumPersistences
)

func (p Persistence) String() string {
	switch p {
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Persistence(%d)", int(p))
	}
}

// FRU identifies one field-replaceable unit: the component for hardware
// faults (Job == "") or a job for software faults.
type FRU struct {
	// Component is the node id of the component, as a stable integer.
	Component int
	// Job is the job's qualified name ("das/job"), empty for the hardware
	// FRU.
	Job string
}

// HardwareFRU returns the hardware FRU of a component.
func HardwareFRU(component int) FRU { return FRU{Component: component} }

// SoftwareFRU returns the software FRU of a job hosted on a component.
func SoftwareFRU(component int, job string) FRU {
	return FRU{Component: component, Job: job}
}

// IsHardware reports whether the FRU is a component (hardware).
func (f FRU) IsHardware() bool { return f.Job == "" }

func (f FRU) String() string {
	if f.IsHardware() {
		return fmt.Sprintf("component[%d]", f.Component)
	}
	return fmt.Sprintf("job[%s@%d]", f.Job, f.Component)
}
