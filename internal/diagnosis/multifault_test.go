package diagnosis

import (
	"context"
	"testing"

	"decos/internal/core"
	"decos/internal/sim"
)

// Targeted concurrent-fault cases: two simultaneous faults of different
// classes on different FRUs must both be classified (the statistical
// version is experiment E9; these pin specific hard pairs).

func TestConcurrentConnectorAndSoftwareFault(t *testing.T) {
	r := newRig(t, 71)
	// Connector on component 2; Bohrbug in the sensor job on component 0.
	r.inj.ConnectorTx(2, sim.Time(100*sim.Millisecond), 0, 0.3)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.Bohrbug(sensor, chSpeed, func(v float64, now sim.Time) bool { return v > 60 }, 400)
	r.cl.RunRounds(context.Background(), 3000)

	v1 := r.verdict(t, core.HardwareFRU(2))
	if v1.Class != core.ComponentBorderline {
		t.Errorf("connector verdict = %v (%s)", v1.Class, v1.Pattern)
	}
	v2 := r.verdict(t, r.jobFRU("A", "sensor"))
	if !core.JobInherentSoftware.Matches(v2.Class) {
		t.Errorf("software verdict = %v (%s)", v2.Class, v2.Pattern)
	}
}

func TestConcurrentPermanentAndConfigFault(t *testing.T) {
	r := newRig(t, 72)
	r.inj.PermanentFailSilent(0, sim.Time(200*sim.Millisecond))
	sink := r.cl.DAS("B").JobNamed("sink")
	r.inj.MisconfigureQueue(sink, chBurst, 1)
	r.cl.RunRounds(context.Background(), 2500)

	v1 := r.verdict(t, core.HardwareFRU(0))
	if v1.Class != core.ComponentInternal || v1.Persistence != core.Permanent {
		t.Errorf("permanent verdict = %v/%v", v1.Class, v1.Persistence)
	}
	v2 := r.verdict(t, r.jobFRU("B", "sink"))
	if v2.Class != core.JobBorderline {
		t.Errorf("config verdict = %v (%s)", v2.Class, v2.Pattern)
	}
}

func TestConcurrentEMIAndConnector(t *testing.T) {
	// An EMI burst over components 0/1 while component 2 has a fretting
	// connector: the spatial correlation must not swallow the connector
	// evidence, nor the connector recurrence taint the burst victims.
	r := newRig(t, 73)
	r.inj.EMIBurst(sim.Time(400*sim.Millisecond), 0.5, 0, 2, 10*sim.Millisecond, 4)
	r.inj.ConnectorTx(2, sim.Time(100*sim.Millisecond), 0, 0.3)
	r.cl.RunRounds(context.Background(), 3000)

	for _, n := range []int{0, 1} {
		v := r.verdict(t, core.HardwareFRU(n))
		if v.Class != core.ComponentExternal {
			t.Errorf("burst victim %d verdict = %v (%s)", n, v.Class, v.Pattern)
		}
	}
	v := r.verdict(t, core.HardwareFRU(2))
	if v.Class != core.ComponentBorderline {
		t.Errorf("connector verdict = %v (%s)", v.Class, v.Pattern)
	}
}

func TestConcurrentSensorFaultsOnDistinctComponents(t *testing.T) {
	r := newRig(t, 74)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.SensorStuck(sensor, sim.Time(200*sim.Millisecond), 77)
	r.inj.ConnectorRx(1, sim.Time(150*sim.Millisecond), 0, 0.4)
	r.cl.RunRounds(context.Background(), 3000)

	v1 := r.verdict(t, core.HardwareFRU(1))
	if v1.Class != core.ComponentBorderline || v1.Pattern != "connector-rx" {
		t.Errorf("rx-connector verdict = %v (%s)", v1.Class, v1.Pattern)
	}
	// The stuck sensor is observed by the control job on component 1 —
	// whose inbound connector drops 40 % of frames. The evidence still
	// gets through (state republication is redundant in time).
	v2 := r.verdict(t, r.jobFRU("A", "sensor"))
	if !core.JobInherentSensor.Matches(v2.Class) {
		t.Errorf("sensor verdict = %v (%s)", v2.Class, v2.Pattern)
	}
}
