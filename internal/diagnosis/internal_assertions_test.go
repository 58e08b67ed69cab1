package diagnosis

import (
	"context"
	"testing"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/sim"
)

// The Section III-D extension: with job-internal assertions enabled, the
// merged job-inherent verdict splits exactly into software and transducer
// subclasses. These tests reuse the standard rig but flip the option on.

func newAssertedRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	r := newRigWithOptions(t, seed, Options{JobInternalAssertions: true})
	return r
}

func TestInternalAssertionsSplitSensorStuck(t *testing.T) {
	r := newAssertedRig(t, 21)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.SensorStuck(sensor, sim.Time(200*sim.Millisecond), 77)
	r.cl.RunRounds(context.Background(), 2500)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s), want exact sensor subclass", v.Class, v.Pattern)
	}
	if v.Pattern != "job-inherent-sensor/internal" {
		t.Errorf("pattern = %s", v.Pattern)
	}
}

func TestInternalAssertionsSplitSensorDrift(t *testing.T) {
	r := newAssertedRig(t, 22)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.SensorDrift(sensor, sim.Time(100*sim.Millisecond), 3600*60)
	r.cl.RunRounds(context.Background(), 3000)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s), want exact sensor subclass", v.Class, v.Pattern)
	}
}

func TestInternalAssertionsSplitBohrbug(t *testing.T) {
	r := newAssertedRig(t, 23)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	// A Bohrbug emitting a constant value — at the interface this is
	// indistinguishable from a stuck sensor, but the job's internal
	// transducer checks pass, so the verdict must be software.
	r.inj.Bohrbug(sensor, chSpeed, func(v float64, now sim.Time) bool { return true }, 60)
	r.cl.RunRounds(context.Background(), 2500)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherentSoftware {
		t.Errorf("verdict = %v (%s), want exact software subclass", v.Class, v.Pattern)
	}
	if v.Action != core.ActionForwardToOEM {
		t.Errorf("action = %v, want forward-to-oem", v.Action)
	}
}

func TestInternalAssertionsSplitHeisenbug(t *testing.T) {
	r := newAssertedRig(t, 24)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.Heisenbug(sensor, chSpeed, 0.05, 500, false)
	r.cl.RunRounds(context.Background(), 3000)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherentSoftware {
		t.Errorf("verdict = %v (%s), want exact software subclass", v.Class, v.Pattern)
	}
}

func TestWithoutExtensionStaysMerged(t *testing.T) {
	// Baseline behaviour unchanged: the constant-value Bohrbug keeps the
	// merged verdict without job-internal information.
	r := newRig(t, 25)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.Bohrbug(sensor, chSpeed, func(v float64, now sim.Time) bool { return true }, 60)
	r.cl.RunRounds(context.Background(), 2500)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class == core.JobInherentSoftware {
		t.Errorf("exact software verdict without job-internal information: %s", v.Pattern)
	}
}

var _ component.SelfChecker = (*component.SensorJob)(nil)
