package diagnosis

import (
	"context"
	"testing"

	"decos/internal/clock"
	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

const (
	chSpeed vnet.ChannelID = 1
	chCmd   vnet.ChannelID = 2
	chBurst vnet.ChannelID = 10
)

// rig is the standard diagnostic test cluster: four components, a TT
// control DAS (sensor@0 → control@1 → actuator@2), an ET DAS (bursty@1 →
// sink@3), diagnostics hosted on component 3.
type rig struct {
	cl   *component.Cluster
	inj  *faults.Injector
	diag *Diagnostics
}

func newRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	return newRigWithOptions(t, seed, Options{})
}

func newRigWithOptions(t *testing.T, seed uint64, opts Options) *rig {
	t.Helper()
	cfg := tt.UniformSchedule(4, 250*sim.Microsecond, 256)
	cl := component.NewCluster(cfg, seed)
	cl.Bus.Clocks = clock.NewCluster(4, 50, 0, 20, 1, cl.Streams.Stream("clocks"))
	c0 := cl.AddComponent(0, "c0", 0, 0)
	c1 := cl.AddComponent(1, "c1", 1, 0)
	c2 := cl.AddComponent(2, "c2", 5, 0)
	c3 := cl.AddComponent(3, "c3", 6, 0)

	cl.Env.DefineSine("speed", 30, 200*sim.Millisecond, 50)

	dasA := cl.AddDAS("A", component.NonSafetyCritical)
	nA := cl.AddNetwork(dasA, "A.tt", vnet.TimeTriggered)
	nA.AddEndpoint(0, 40, 0)
	nA.AddEndpoint(1, 40, 0)
	sensor := cl.AddJob(dasA, c0, "sensor", 0, &component.SensorJob{
		Signal: "speed", Out: chSpeed,
		PhysMin: -10, PhysMax: 110, FrozenWindow: 20,
	})
	control := cl.AddJob(dasA, c1, "control", 0,
		&component.ControlJob{In: chSpeed, Out: chCmd, Gain: 2, InMin: 0, InMax: 100})
	actuator := cl.AddJob(dasA, c2, "actuator", 0, &component.ActuatorJob{In: chCmd, Actuator: "brake"})
	cl.Produce(sensor, nA, component.ChannelSpec{
		Channel: chSpeed, Name: "speed", Min: 0, Max: 100,
		MaxAgeRounds: 3, StuckRounds: 20, Sensor: true,
	})
	cl.Produce(control, nA, component.ChannelSpec{Channel: chCmd, Name: "cmd", Min: 0, Max: 200, MaxAgeRounds: 3})
	cl.Subscribe(control, chSpeed, 0, true)
	cl.Subscribe(actuator, chCmd, 4, false)

	dasB := cl.AddDAS("B", component.NonSafetyCritical)
	nB := cl.AddNetwork(dasB, "B.et", vnet.EventTriggered)
	nB.AddEndpoint(1, 60, 16)
	bj := cl.AddJob(dasB, c1, "bursty", 1, &component.BurstyJob{Out: chBurst, MeanPerRound: 2})
	sj := cl.AddJob(dasB, c3, "sink", 1, &component.SinkJob{In: chBurst})
	cl.Produce(bj, nB, component.ChannelSpec{Channel: chBurst, Name: "burst", Min: -1e12, Max: 1e12})
	cl.Subscribe(sj, chBurst, 8, false)

	diag := Attach(cl, 3, opts)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{cl: cl, inj: faults.NewInjector(cl), diag: diag}
}

func (r *rig) verdict(t *testing.T, f core.FRU) Verdict {
	t.Helper()
	v, ok := r.diag.VerdictOf(f)
	if !ok {
		t.Fatalf("no verdict for %v; emitted: %v", f, r.diag.Assessor.Emitted())
	}
	return v
}

func (r *rig) jobFRU(das, name string) core.FRU {
	j := r.cl.DAS(das).JobNamed(name)
	return core.SoftwareFRU(int(j.Comp.ID), das+"/"+name)
}

func TestHealthyClusterStaysClean(t *testing.T) {
	r := newRig(t, 1)
	r.cl.RunRounds(context.Background(), 1000)
	if n := len(r.diag.Assessor.Emitted()); n != 0 {
		t.Fatalf("healthy cluster produced %d verdicts: %v", n, r.diag.Assessor.Emitted())
	}
	for i := 0; i < r.diag.Reg.Len(); i++ {
		if tr := r.diag.Assessor.Trust(FRUIndex(i)); tr < 0.99 {
			t.Errorf("FRU %d trust = %v on healthy cluster", i, tr)
		}
	}
	if r.diag.Assessor.SymptomsReceived != 0 {
		t.Errorf("healthy cluster disseminated %d symptoms", r.diag.Assessor.SymptomsReceived)
	}
}

func TestPermanentFailSilentClassified(t *testing.T) {
	r := newRig(t, 2)
	r.inj.PermanentFailSilent(0, sim.Time(100*sim.Millisecond))
	r.cl.RunRounds(context.Background(), 1000)
	v := r.verdict(t, core.HardwareFRU(0))
	if v.Class != core.ComponentInternal || v.Persistence != core.Permanent {
		t.Errorf("verdict = %v/%v (%s)", v.Class, v.Persistence, v.Pattern)
	}
	if v.Pattern != "permanent-silence" {
		t.Errorf("pattern = %s", v.Pattern)
	}
	if v.Action != core.ActionReplaceComponent {
		t.Errorf("action = %v", v.Action)
	}
	if tr := r.diag.TrustOf(core.HardwareFRU(0)); tr > 0.3 {
		t.Errorf("dead component trust = %v", tr)
	}
}

func TestDefectiveQuartzClassifiedAsSyncLoss(t *testing.T) {
	r := newRig(t, 3)
	r.inj.DefectiveQuartz(1, sim.Time(100*sim.Millisecond), 100_000)
	r.cl.RunRounds(context.Background(), 1000)
	v := r.verdict(t, core.HardwareFRU(1))
	if v.Class != core.ComponentInternal || v.Pattern != "sync-loss" {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
}

func TestConnectorTxClassifiedBorderline(t *testing.T) {
	r := newRig(t, 4)
	r.inj.ConnectorTx(0, sim.Time(50*sim.Millisecond), 0, 0.3)
	r.cl.RunRounds(context.Background(), 2000)
	v := r.verdict(t, core.HardwareFRU(0))
	if v.Class != core.ComponentBorderline || v.Pattern != "connector-tx" {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	if v.Action != core.ActionInspectConnector {
		t.Errorf("action = %v", v.Action)
	}
}

func TestConnectorRxClassifiedBorderlineAtReceiver(t *testing.T) {
	r := newRig(t, 5)
	r.inj.ConnectorRx(1, sim.Time(50*sim.Millisecond), 0, 0.4)
	r.cl.RunRounds(context.Background(), 2000)
	v := r.verdict(t, core.HardwareFRU(1))
	if v.Class != core.ComponentBorderline || v.Pattern != "connector-rx" {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	// The senders it failed to hear must NOT be blamed.
	for _, other := range []int{0, 2} {
		if v, ok := r.diag.VerdictOf(core.HardwareFRU(other)); ok && v.Class != core.ComponentExternal {
			t.Errorf("innocent sender %d blamed: %v (%s)", other, v.Class, v.Pattern)
		}
	}
}

func TestEMIBurstClassifiedExternal(t *testing.T) {
	r := newRig(t, 6)
	r.inj.EMIBurst(sim.Time(150*sim.Millisecond), 0.5, 0, 2, 10*sim.Millisecond, 4)
	r.cl.RunRounds(context.Background(), 1200)
	for _, n := range []int{0, 1} {
		v := r.verdict(t, core.HardwareFRU(n))
		if v.Class != core.ComponentExternal || v.Pattern != "massive-transient" {
			t.Errorf("component %d: verdict = %v (%s)", n, v.Class, v.Pattern)
		}
		if v.Action != core.ActionNone {
			t.Errorf("component %d: action = %v", n, v.Action)
		}
	}
	// Distant components unaffected.
	if _, ok := r.diag.VerdictOf(core.HardwareFRU(2)); ok {
		t.Error("distant component received a verdict")
	}
	// Trust of hit components recovers (external = transient).
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	if tr := r.diag.Assessor.Trust(hw0); tr < 0.8 {
		t.Errorf("trust after external burst = %v, want recovery", tr)
	}
}

func TestPowerDipClassifiedExternal(t *testing.T) {
	r := newRig(t, 26)
	r.inj.PowerDip(1, sim.Time(200*sim.Millisecond), 50*sim.Millisecond)
	r.cl.RunRounds(context.Background(), 1500)
	v := r.verdict(t, core.HardwareFRU(1))
	if v.Class != core.ComponentExternal {
		t.Errorf("verdict = %v (%s), want external (transient outage ≤ hypothesis bound)", v.Class, v.Pattern)
	}
	if v.Action != core.ActionNone {
		t.Errorf("action = %v", v.Action)
	}
	// The component is back and publishing (restart + state resync).
	round := r.cl.Round()
	if !r.cl.Bus.Membership(0).Member(1, round) {
		t.Error("component not reintegrated after dip")
	}
}

func TestSEUClassifiedIsolatedTransient(t *testing.T) {
	r := newRig(t, 7)
	r.inj.SEU(sim.Time(100*sim.Millisecond), 2)
	r.cl.RunRounds(context.Background(), 1000)
	v := r.verdict(t, core.HardwareFRU(2))
	if v.Class != core.ComponentExternal || v.Pattern != "isolated-transient" {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	if v.Action != core.ActionNone {
		t.Errorf("action = %v", v.Action)
	}
}

func TestWearoutClassifiedInternal(t *testing.T) {
	r := newRig(t, 8)
	acc := faults.WearoutAcceleration{
		Onset:           sim.Time(100 * sim.Millisecond),
		Tau:             400 * sim.Millisecond,
		BaseRatePerHour: 3600 * 4, // 4 episodes/s initially
		MaxFactor:       40,
	}
	r.inj.Wearout(0, acc, 3600*30)             // sensor values drift upward
	r.cl.RunRounds(context.Background(), 3000) // 3 s
	v := r.verdict(t, core.HardwareFRU(0))
	if v.Class != core.ComponentInternal {
		t.Fatalf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	if v.Pattern != "wearout" && v.Pattern != "recurrent-transient" {
		t.Errorf("pattern = %s", v.Pattern)
	}
	if v.Action != core.ActionReplaceComponent {
		t.Errorf("action = %v", v.Action)
	}
	// Fig. 9 trajectory A: trust declines.
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	if tr := r.diag.Assessor.Trust(hw0); tr > 0.5 {
		t.Errorf("wearout trust = %v, want declining", tr)
	}
}

func TestIntermittentInternalClassified(t *testing.T) {
	r := newRig(t, 9)
	r.inj.IntermittentInternal(2, sim.Time(100*sim.Millisecond), 3600*6, 0)
	r.cl.RunRounds(context.Background(), 2500)
	v := r.verdict(t, core.HardwareFRU(2))
	if v.Class != core.ComponentInternal {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
}

func TestMisconfiguredQueueClassifiedJobBorderline(t *testing.T) {
	r := newRig(t, 10)
	sink := r.cl.DAS("B").JobNamed("sink")
	r.inj.MisconfigureQueue(sink, chBurst, 1)
	r.cl.RunRounds(context.Background(), 1500)
	v := r.verdict(t, r.jobFRU("B", "sink"))
	if v.Class != core.JobBorderline || v.Pattern != "configuration" {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	if v.Action != core.ActionUpdateConfiguration {
		t.Errorf("action = %v", v.Action)
	}
	// The (conforming) producer is not blamed.
	if v, ok := r.diag.VerdictOf(r.jobFRU("B", "bursty")); ok {
		t.Errorf("conforming producer blamed: %v (%s)", v.Class, v.Pattern)
	}
}

func TestBohrbugClassifiedJobInherent(t *testing.T) {
	r := newRig(t, 11)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.Bohrbug(sensor, chSpeed, func(v float64, now sim.Time) bool { return v > 60 }, 400)
	r.cl.RunRounds(context.Background(), 2000)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherent && v.Class != core.JobInherentSensor {
		t.Fatalf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	// Downstream control job (validates inputs) is not blamed.
	if v, ok := r.diag.VerdictOf(r.jobFRU("A", "control")); ok {
		t.Errorf("downstream job blamed: %v (%s)", v.Class, v.Pattern)
	}
	// The hosting component's hardware is not blamed.
	if v, ok := r.diag.VerdictOf(core.HardwareFRU(0)); ok && v.Class != core.ComponentExternal {
		t.Errorf("hardware blamed for software fault: %v (%s)", v.Class, v.Pattern)
	}
}

func TestHeisenbugClassifiedJobInherent(t *testing.T) {
	r := newRig(t, 12)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.Heisenbug(sensor, chSpeed, 0.05, 500, false)
	r.cl.RunRounds(context.Background(), 3000)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherent && v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
}

func TestJobCrashClassifiedJobInherent(t *testing.T) {
	r := newRig(t, 13)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.JobCrash(sensor, sim.Time(200*sim.Millisecond))
	r.cl.RunRounds(context.Background(), 1500)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherent && v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
}

func TestSensorStuckClassifiedSensor(t *testing.T) {
	r := newRig(t, 14)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.SensorStuck(sensor, sim.Time(200*sim.Millisecond), 77)
	r.cl.RunRounds(context.Background(), 2500)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	if v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s), want sensor subclass", v.Class, v.Pattern)
	}
	if v.Action != core.ActionInspectTransducer {
		t.Errorf("action = %v", v.Action)
	}
}

func TestSensorDriftClassifiedInherent(t *testing.T) {
	r := newRig(t, 15)
	sensor := r.cl.DAS("A").JobNamed("sensor")
	r.inj.SensorDrift(sensor, sim.Time(100*sim.Millisecond), 3600*60) // +60/s
	r.cl.RunRounds(context.Background(), 3000)
	v := r.verdict(t, r.jobFRU("A", "sensor"))
	// Drift exits the spec range → value violations confined to one job.
	if v.Class != core.JobInherent && v.Class != core.JobInherentSensor {
		t.Errorf("verdict = %v (%s)", v.Class, v.Pattern)
	}
	truth := core.JobInherentSensor
	if !truth.Matches(v.Class) {
		t.Errorf("verdict %v does not match ground truth", v.Class)
	}
}

func TestVerdictClearedAfterRepair(t *testing.T) {
	r := newRig(t, 16)
	r.inj.PermanentFailSilent(0, sim.Time(50*sim.Millisecond))
	r.cl.RunRounds(context.Background(), 600)
	hw0, _ := r.diag.Reg.HardwareIndex(0)
	if _, ok := r.diag.Assessor.Current(hw0); !ok {
		t.Fatal("no verdict before repair")
	}
	// Repair: replace the component.
	r.cl.Bus.SetAlive(0, true)
	r.diag.Assessor.ClearVerdict(hw0)
	if _, ok := r.diag.Assessor.Current(hw0); ok {
		t.Error("verdict survives ClearVerdict")
	}
	if r.diag.Assessor.Trust(hw0) != 1 {
		t.Error("trust not restored")
	}
	r.cl.RunRounds(context.Background(), 600)
	if v, ok := r.diag.Assessor.Current(hw0); ok && v.Class != core.ComponentExternal {
		t.Errorf("repaired component re-accused: %v (%s)", v.Class, v.Pattern)
	}
}

func TestDiagnosticTrafficFlows(t *testing.T) {
	r := newRig(t, 17)
	r.inj.ConnectorTx(0, sim.Time(50*sim.Millisecond), 0, 0.3)
	r.cl.RunRounds(context.Background(), 500)
	if r.diag.Assessor.SymptomsReceived == 0 {
		t.Fatal("no symptoms reached the assessor")
	}
	sent := 0
	for _, m := range r.diag.Monitors {
		sent += m.SymptomsSent
	}
	if sent == 0 {
		t.Fatal("monitors sent nothing")
	}
	if r.diag.Assessor.SymptomsReceived > sent {
		t.Errorf("received %d > sent %d", r.diag.Assessor.SymptomsReceived, sent)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := newRig(t, 18)
	reg := r.diag.Reg
	if reg.Len() != 4+5 { // 4 components + 5 jobs
		t.Errorf("registry size = %d, want 9", reg.Len())
	}
	if len(reg.HardwareFRUs()) != 4 || len(reg.SoftwareFRUs()) != 5 {
		t.Error("FRU partition wrong")
	}
	hw1, ok := reg.HardwareIndex(1)
	if !ok {
		t.Fatal("no hardware index for node 1")
	}
	jobs := reg.JobsOn(hw1)
	if len(jobs) != 2 { // control + bursty
		t.Errorf("jobs on c1 = %d, want 2", len(jobs))
	}
	for _, j := range jobs {
		if reg.HostOf(j) != hw1 {
			t.Error("HostOf wrong")
		}
	}
	if reg.HostOf(hw1) != hw1 {
		t.Error("HostOf(hardware) != self")
	}
	if d := reg.Distance(hw1, hw1); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	meta, ok := reg.Channel(chSpeed)
	if !ok || !meta.Spec.Sensor || meta.DAS != "A" {
		t.Errorf("channel meta wrong: %+v ok=%v", meta, ok)
	}
	if reg.DASOf(jobs[0]) == "" {
		t.Error("DASOf empty for software FRU")
	}
}

func TestTrustTrajectoriesFig9(t *testing.T) {
	// Trajectory A: degrading FRU (wearout) — trust declines steadily.
	// Trajectory B: FRU under brief external disturbance — dips, recovers.
	r := newRig(t, 19)
	acc := faults.WearoutAcceleration{
		Onset: sim.Time(100 * sim.Millisecond), Tau: 400 * sim.Millisecond,
		BaseRatePerHour: 3600 * 4, MaxFactor: 40,
	}
	r.inj.Wearout(0, acc, 0)
	r.inj.EMIBurst(sim.Time(300*sim.Millisecond), 5.5, 0, 1.2, 10*sim.Millisecond, 4)
	// (burst hits components 2 and 3 at x=5,6)
	r.cl.RunRounds(context.Background(), 3000)

	hw0, _ := r.diag.Reg.HardwareIndex(0)
	hw2, _ := r.diag.Reg.HardwareIndex(2)
	histA := r.diag.Assessor.TrustHistory(hw0)
	histB := r.diag.Assessor.TrustHistory(hw2)
	if len(histA) < 10 || len(histB) < 10 {
		t.Fatalf("trust histories too short: %d, %d", len(histA), len(histB))
	}
	if final := histA[len(histA)-1].Trust; final > 0.4 {
		t.Errorf("trajectory A final trust = %v, want low", final)
	}
	// B dipped below 1 at some point but recovered.
	minB := core.TrustLevel(1)
	for _, p := range histB {
		if p.Trust < minB {
			minB = p.Trust
		}
	}
	if minB >= 1 {
		t.Error("trajectory B never dipped")
	}
	if final := histB[len(histB)-1].Trust; final < 0.9 {
		t.Errorf("trajectory B final trust = %v, want recovered", final)
	}
}
