package pack

import (
	"fmt"
	"strings"

	"decos/internal/component"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// ApplyFaults is the manifest's engine.WithFaults hook: it applies the
// declared faults in order, then the deterministic expansion of every
// environment profile. It runs after cluster start, so job references
// resolve against the built topology; validation has already checked
// them, so lookup failures here are programming errors and panic.
func (m *Manifest) ApplyFaults(inj *faults.Injector) {
	for i := range m.Faults {
		f := &m.Faults[i]
		f.Apply(inj, f.At())
	}
	for i := range m.Environment {
		for _, f := range m.Environment[i].expand(&m.Topology) {
			f.Apply(inj, f.At())
		}
	}
}

// resolveJob returns the job instance a "DAS/job" reference names.
func resolveJob(cl *component.Cluster, ref string) *component.Instance {
	dasName, jobName, ok := strings.Cut(ref, "/")
	if !ok {
		panic(fmt.Sprintf("pack: job reference %q is not DAS/job", ref))
	}
	das := cl.DAS(dasName)
	if das == nil {
		panic(fmt.Sprintf("pack: unknown DAS %q", dasName))
	}
	j := das.JobNamed(jobName)
	if j == nil {
		panic(fmt.Sprintf("pack: unknown job %q in DAS %q", jobName, dasName))
	}
	return j
}

// Apply injects one validated FaultSpec through its injector primitive,
// activating at at, and returns the ledger entry. It is the one injection
// path: manifest faults, environment profiles, scenario plan entries and
// campaign draws (scenario.FaultKind.Spec) all end here. The instant is
// passed rather than read from AtMS because a plan's instants are
// arbitrary microseconds, and a float millisecond count is not an exact
// carrier for every one of them.
func (f *FaultSpec) Apply(inj *faults.Injector, at sim.Time) *faults.Activation {
	cl := inj.Cluster()
	comp := tt.NodeID(f.Component)
	switch f.Kind {
	case "emi-burst":
		x, y := f.X, f.Y
		if f.Component >= 0 {
			// Component-targeted burst: epicenter at the component.
			c := cl.Component(comp)
			x, y = c.X, c.Y
		}
		return inj.EMIBurst(at, x, y, f.Radius, f.Duration(), f.Bits)
	case "seu":
		return inj.SEU(at, comp)
	case "power-dip":
		return inj.PowerDip(comp, at, f.Duration())
	case "connector-tx":
		return inj.ConnectorTx(comp, at, f.End(), f.Rate)
	case "connector-rx":
		return inj.ConnectorRx(comp, at, f.End(), f.Rate)
	case "wearout":
		return inj.Wearout(comp, faults.WearoutAcceleration{
			Onset:           at,
			Tau:             sim.Duration(msToTime(f.TauMS)),
			BaseRatePerHour: f.BaseRatePerHour,
			MaxFactor:       f.MaxFactor,
		}, f.DriftPerHour)
	case "intermittent":
		return inj.IntermittentInternal(comp, at, f.RatePerHour, f.End())
	case "permanent-silent":
		return inj.PermanentFailSilent(comp, at)
	case "permanent-babbling":
		return inj.PermanentBabbling(comp, at)
	case "quartz":
		return inj.DefectiveQuartz(comp, at, f.DriftPPM)
	case "transient-quartz":
		return inj.TransientQuartz(comp, at, f.Duration(), f.DriftPPM)
	case "misconfig-queue":
		return inj.MisconfigureQueue(resolveJob(cl, f.Job), vnet.ChannelID(f.Channel), f.QueueCap)
	case "bohrbug":
		threshold := f.Threshold
		bad := f.Value
		return inj.Bohrbug(resolveJob(cl, f.Job), vnet.ChannelID(f.Channel),
			func(v float64, now sim.Time) bool { return now >= at && v > threshold }, bad)
	case "heisenbug":
		return inj.Heisenbug(resolveJob(cl, f.Job), vnet.ChannelID(f.Channel), f.Rate, f.Value, f.Omit)
	case "job-crash":
		return inj.JobCrash(resolveJob(cl, f.Job), at)
	case "sensor-stuck":
		return inj.SensorStuck(resolveJob(cl, f.Job), at, f.Value)
	case "sensor-drift":
		return inj.SensorDrift(resolveJob(cl, f.Job), at, f.DriftPerHour)
	default:
		panic(fmt.Sprintf("pack: no injector primitive for kind %q (validate first)", f.Kind))
	}
}
