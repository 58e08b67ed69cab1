package faults

import (
	"context"
	"math"
	"testing"

	"decos/internal/clock"
	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

const (
	chSpeed vnet.ChannelID = 1
	chCmd   vnet.ChannelID = 2
	chBurst vnet.ChannelID = 10
)

type fixture struct {
	cl     *component.Cluster
	inj    *Injector
	sensor *component.Instance
	sink   *component.SinkJob
	ctrlIn *vnet.InPort // control job's view of chSpeed
	actIn  *vnet.InPort // actuator job's view of chCmd
}

func build(t *testing.T, seed uint64) *fixture {
	t.Helper()
	cfg := tt.UniformSchedule(4, 250*sim.Microsecond, 128)
	cl := component.NewCluster(cfg, seed)
	cl.Bus.Clocks = clock.NewCluster(4, 50, 0, 20, 1, cl.Streams.Stream("clocks"))
	c0 := cl.AddComponent(0, "c0", 0, 0)
	c1 := cl.AddComponent(1, "c1", 1, 0)
	c2 := cl.AddComponent(2, "c2", 5, 0)
	c3 := cl.AddComponent(3, "c3", 6, 0)

	cl.Env.DefineConst("speed", 30)

	dasA := cl.AddDAS("A", component.NonSafetyCritical)
	nA := cl.AddNetwork(dasA, "A.tt", vnet.TimeTriggered)
	nA.AddEndpoint(0, 40, 0)
	nA.AddEndpoint(1, 40, 0)
	sensor := cl.AddJob(dasA, c0, "sensor", 0, &component.SensorJob{Signal: "speed", Out: chSpeed})
	control := cl.AddJob(dasA, c1, "control", 0, &component.ControlJob{In: chSpeed, Out: chCmd, Gain: 2})
	actuator := cl.AddJob(dasA, c2, "actuator", 0, &component.ActuatorJob{In: chCmd, Actuator: "brake"})
	cl.Produce(sensor, nA, component.ChannelSpec{Channel: chSpeed, Name: "speed", Min: 0, Max: 100, MaxAgeRounds: 3})
	cl.Produce(control, nA, component.ChannelSpec{Channel: chCmd, Name: "cmd", Min: 0, Max: 200, MaxAgeRounds: 3})
	ctrlIn := cl.Subscribe(control, chSpeed, 0, true)
	actIn := cl.Subscribe(actuator, chCmd, 4, false)

	dasB := cl.AddDAS("B", component.NonSafetyCritical)
	nB := cl.AddNetwork(dasB, "B.et", vnet.EventTriggered)
	nB.AddEndpoint(1, 60, 16)
	sink := &component.SinkJob{In: chBurst}
	bj := cl.AddJob(dasB, c1, "bursty", 1, &component.BurstyJob{Out: chBurst, MeanPerRound: 2})
	sj := cl.AddJob(dasB, c3, "sink", 1, sink)
	cl.Produce(bj, nB, component.ChannelSpec{Channel: chBurst, Name: "burst", Min: 0, Max: 1e12})
	cl.Subscribe(sj, chBurst, 8, false)

	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return &fixture{cl: cl, inj: NewInjector(cl), sensor: sensor, sink: sink, ctrlIn: ctrlIn, actIn: actIn}
}

// statusCounter tallies per-sender frame statuses seen on the bus.
type statusCounter map[tt.NodeID]map[tt.FrameStatus]int

func observe(f *fixture) statusCounter {
	sc := statusCounter{}
	f.cl.Bus.Observe(func(fr *tt.Frame, _ []tt.FrameStatus) {
		if sc[fr.Sender] == nil {
			sc[fr.Sender] = map[tt.FrameStatus]int{}
		}
		sc[fr.Sender][fr.Status]++
	})
	return sc
}

func (f *fixture) runRounds(n int64) { f.cl.RunRounds(context.Background(), n) }

func TestEMIBurstAffectsProximateComponentsSimultaneously(t *testing.T) {
	f := build(t, 1)
	sc := observe(f)
	// Burst near components 0 and 1 (at x≤1), far from 2 and 3 (x≥5).
	a := f.inj.EMIBurst(sim.Time(5*sim.Millisecond), 0.5, 0, 2, 10*sim.Millisecond, 4)
	f.runRounds(60) // 60 ms
	if len(a.Affected) != 2 {
		t.Fatalf("affected = %v, want components 0 and 1", a.Affected)
	}
	if sc[0][tt.FrameCorrupted] == 0 || sc[1][tt.FrameCorrupted] == 0 {
		t.Errorf("proximate components not corrupted: %v", sc)
	}
	if sc[2][tt.FrameCorrupted] != 0 || sc[3][tt.FrameCorrupted] != 0 {
		t.Errorf("distant components corrupted: %v", sc)
	}
	// Simultaneity: all episodes inside the 10 ms window.
	for _, e := range a.Episodes {
		if e < a.Start || e > a.End {
			t.Errorf("episode %v outside burst window [%v,%v]", e, a.Start, a.End)
		}
	}
	if a.Class != core.ComponentExternal || a.Culprit != NoCulprit {
		t.Errorf("ledger wrong: %v", a)
	}
	// After the burst everything is clean again (external = no permanent
	// effect): run on and compare.
	before := sc[0][tt.FrameCorrupted]
	f.runRounds(40)
	if sc[0][tt.FrameCorrupted] != before {
		t.Error("corruption continued after burst end")
	}
}

func TestSEUCorruptsExactlyOneFrame(t *testing.T) {
	f := build(t, 2)
	sc := observe(f)
	a := f.inj.SEU(sim.Time(2*sim.Millisecond), 1)
	f.runRounds(50)
	if got := sc[1][tt.FrameCorrupted]; got != 1 {
		t.Errorf("corrupted frames = %d, want exactly 1", got)
	}
	if len(a.Episodes) != 1 {
		t.Errorf("episodes = %d", len(a.Episodes))
	}
}

func TestConnectorTxOmitsIntermittently(t *testing.T) {
	f := build(t, 3)
	sc := observe(f)
	f.inj.ConnectorTx(0, sim.Time(sim.Millisecond), 0, 0.3)
	f.runRounds(1000)
	ok, omitted := sc[0][tt.FrameOK], sc[0][tt.FrameOmitted]
	total := ok + omitted
	rate := float64(omitted) / float64(total)
	if math.Abs(rate-0.3) > 0.06 {
		t.Errorf("omission rate = %v, want ≈0.3", rate)
	}
	// Other components unaffected (one component only — Fig. 8).
	for n := tt.NodeID(1); n <= 3; n++ {
		if sc[n][tt.FrameOmitted] != 0 {
			t.Errorf("component %d saw omissions", n)
		}
	}
}

func TestConnectorRxAffectsOnlyReceiver(t *testing.T) {
	f := build(t, 4)
	f.inj.ConnectorRx(1, sim.Time(sim.Millisecond), 0, 0.5)
	f.runRounds(400)
	// Control job on component 1 misses frames from the sensor's component.
	if f.ctrlIn.Stats.FrameMisses == 0 {
		t.Error("rx connector fault produced no misses at the afflicted node")
	}
	// The actuator on component 2 still receives cleanly.
	if f.actIn.Stats.FrameMisses != 0 {
		t.Errorf("unaffected receiver missed %d frames", f.actIn.Stats.FrameMisses)
	}
}

func TestWearoutEpisodeRateGrowsAndValueDrifts(t *testing.T) {
	f := build(t, 5)
	// Onset immediately; rate doubles every ~72 ms; base 50 000/h ≈ 1.4e-2/s.
	// Scale rates up so a 2-second simulation shows the trend.
	acc := WearoutAcceleration{
		Onset:           0,
		Tau:             500 * sim.Millisecond,
		BaseRatePerHour: 3600 * 20, // 20 episodes/s initially
		MaxFactor:       50,
	}
	a := f.inj.Wearout(0, acc, 3600*40) // +40 per hour => +0.011/s… scaled below
	f.runRounds(2000)                   // 2 s
	if len(a.Episodes) < 20 {
		t.Fatalf("only %d episodes", len(a.Episodes))
	}
	// Rising frequency: more episodes in the second half.
	half := sim.Time(sim.Second)
	first, second := 0, 0
	for _, e := range a.Episodes {
		if e < half {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Errorf("episode rate not increasing: %d then %d", first, second)
	}
	// Value drift: the control job's view of the speed value deviates
	// increasingly from the true 30.
	v := vnet.Message{Payload: f.ctrlIn.Stats.LastValue}.Float()
	if v <= 30.01 {
		t.Errorf("no value drift: %v", v)
	}
}

func TestPermanentFailSilent(t *testing.T) {
	f := build(t, 6)
	sc := observe(f)
	f.inj.PermanentFailSilent(0, sim.Time(10*sim.Millisecond))
	f.runRounds(100)
	if sc[0][tt.FrameOmitted] < 80 {
		t.Errorf("omissions = %d, want ≥80 after kill at 10ms", sc[0][tt.FrameOmitted])
	}
	if f.cl.Bus.Alive(0) {
		t.Error("component still alive")
	}
}

func TestPermanentBabblingContainedByGuardian(t *testing.T) {
	f := build(t, 7)
	sc := observe(f)
	f.inj.PermanentBabbling(3, sim.Time(5*sim.Millisecond))
	f.runRounds(100)
	if f.cl.Bus.GuardianBlocks == 0 {
		t.Error("guardian never engaged")
	}
	// Own slot garbage.
	if sc[3][tt.FrameCorrupted] < 80 {
		t.Errorf("babbler's own frames corrupted only %d times", sc[3][tt.FrameCorrupted])
	}
	// Other slots undisturbed (strong fault isolation).
	if sc[0][tt.FrameCorrupted]+sc[1][tt.FrameCorrupted]+sc[2][tt.FrameCorrupted] != 0 {
		t.Error("babbling leaked into foreign slots despite guardian")
	}
}

func TestDefectiveQuartzCausesTimingFailures(t *testing.T) {
	f := build(t, 8)
	sc := observe(f)
	f.inj.DefectiveQuartz(2, sim.Time(5*sim.Millisecond), 100_000)
	f.runRounds(200)
	if f.cl.Bus.Clocks.InSync(2) {
		t.Fatal("defective quartz kept sync")
	}
	if sc[2][tt.FrameTiming] == 0 {
		t.Error("no timing failures observed")
	}
}

func TestMisconfigureQueueOverflows(t *testing.T) {
	f := build(t, 9)
	sinkJob := f.cl.DAS("B").JobNamed("sink")
	a := f.inj.MisconfigureQueue(sinkJob, chBurst, 1)
	f.runRounds(500)
	if sinkJob.InPort(chBurst).Stats.Overflows == 0 {
		t.Error("no overflows despite misconfigured queue")
	}
	if a.Class != core.JobBorderline {
		t.Errorf("class = %v", a.Class)
	}
}

func TestBohrbugIsDeterministic(t *testing.T) {
	counts := make([]int, 2)
	for run := 0; run < 2; run++ {
		f := build(t, 42)                                               // same seed both runs
		trigger := func(v float64, now sim.Time) bool { return v > 29 } // always true here
		a := f.inj.Bohrbug(f.sensor, chSpeed, trigger, 500)
		f.runRounds(100)
		counts[run] = len(a.Episodes)
		// The receiver sees the out-of-spec value.
		v := vnet.Message{Payload: f.ctrlIn.Stats.LastValue}.Float()
		if v != 500 {
			t.Errorf("run %d: value = %v, want 500", run, v)
		}
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Errorf("Bohrbug not deterministic: %v", counts)
	}
}

func TestHeisenbugIsSporadic(t *testing.T) {
	f := build(t, 11)
	a := f.inj.Heisenbug(f.sensor, chSpeed, 0.05, 999, false)
	f.runRounds(2000)
	rate := float64(len(a.Episodes)) / 2000
	if math.Abs(rate-0.05) > 0.02 {
		t.Errorf("Heisenbug rate = %v, want ≈0.05", rate)
	}
}

func TestHeisenbugOmission(t *testing.T) {
	f := build(t, 12)
	f.inj.Heisenbug(f.sensor, chSpeed, 1.0, 0, true) // always omit
	f.runRounds(20)
	// Sensor stops publishing: control's port sequence freezes.
	seq := f.ctrlIn.Stats.LastSeq
	f.runRounds(20)
	if f.ctrlIn.Stats.LastSeq != seq {
		t.Error("omitting Heisenbug did not suppress publications")
	}
}

func TestJobCrashFreezesState(t *testing.T) {
	f := build(t, 13)
	f.inj.JobCrash(f.sensor, sim.Time(20*sim.Millisecond))
	f.runRounds(100)
	if !f.sensor.Halted {
		t.Fatal("job not halted")
	}
	seq := f.ctrlIn.Stats.LastSeq
	f.runRounds(20)
	if f.ctrlIn.Stats.LastSeq != seq {
		t.Error("sequence advanced after crash")
	}
}

func TestSensorStuck(t *testing.T) {
	f := build(t, 14)
	f.inj.SensorStuck(f.sensor, sim.Time(10*sim.Millisecond), 77)
	f.runRounds(100)
	v := vnet.Message{Payload: f.ctrlIn.Stats.LastValue}.Float()
	if v != 77 {
		t.Errorf("stuck sensor value = %v, want 77", v)
	}
}

func TestSensorDrift(t *testing.T) {
	f := build(t, 15)
	f.inj.SensorDrift(f.sensor, 0, 3600*100) // +100 per second
	f.runRounds(1000)                        // 1 s
	v := vnet.Message{Payload: f.ctrlIn.Stats.LastValue}.Float()
	if v < 120 || v > 135 {
		t.Errorf("drifted value = %v, want ≈130", v)
	}
}

func TestLedgerBookkeeping(t *testing.T) {
	f := build(t, 16)
	a1 := f.inj.SEU(sim.Time(sim.Millisecond), 0)
	a2 := f.inj.PermanentFailSilent(1, sim.Time(2*sim.Millisecond))
	if len(f.inj.Ledger()) != 2 {
		t.Fatalf("ledger = %d entries", len(f.inj.Ledger()))
	}
	if a1.ID == a2.ID {
		t.Error("duplicate activation ids")
	}
	if a1.String() == "" || a2.String() == "" {
		t.Error("empty String()")
	}
	// Chains carry fault roots.
	if root, ok := a2.Chain.Root(); !ok || root.Kind != core.StageFault {
		t.Error("chain root missing")
	}
}

func TestChainsCompleteAfterManifestation(t *testing.T) {
	f := build(t, 17)
	a := f.inj.PermanentFailSilent(0, sim.Time(5*sim.Millisecond))
	f.runRounds(50)
	if !a.Chain.Complete() {
		t.Errorf("chain incomplete after manifestation: %v", a.Chain.String())
	}
}
