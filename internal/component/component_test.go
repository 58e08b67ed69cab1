package component

import (
	"context"
	"math"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

const (
	chSpeed vnet.ChannelID = 1
	chCmd   vnet.ChannelID = 2
	chBurst vnet.ChannelID = 10
)

// buildPipeline wires sensor(comp0) → control(comp1) → actuator(comp2) on a
// TT network, plus a bursty → sink pair on an ET network.
func buildPipeline(t *testing.T, seed uint64) (*Cluster, *BurstyJob, *SinkJob) {
	t.Helper()
	cl := NewCluster(tt.UniformSchedule(3, 250*sim.Microsecond, 128), seed)
	c0 := cl.AddComponent(0, "front-left", 0, 0)
	c1 := cl.AddComponent(1, "center", 1, 0)
	c2 := cl.AddComponent(2, "rear", 2, 0)

	cl.Env.DefineConst("wheel.speed", 30)

	dasA := cl.AddDAS("A", NonSafetyCritical)
	nA := cl.AddNetwork(dasA, "A.tt", vnet.TimeTriggered)
	nA.AddEndpoint(0, 40, 0)
	nA.AddEndpoint(1, 40, 0)

	sensor := cl.AddJob(dasA, c0, "sensor", 0, &SensorJob{Signal: "wheel.speed", Out: chSpeed})
	control := cl.AddJob(dasA, c1, "control", 0, &ControlJob{In: chSpeed, Out: chCmd, Gain: 2})
	actuator := cl.AddJob(dasA, c2, "actuator", 0, &ActuatorJob{In: chCmd, Actuator: "brake"})

	cl.Produce(sensor, nA, ChannelSpec{Channel: chSpeed, Name: "speed", Min: 0, Max: 100, MaxAgeRounds: 3})
	cl.Produce(control, nA, ChannelSpec{Channel: chCmd, Name: "cmd", Min: 0, Max: 200, MaxAgeRounds: 3})
	cl.Subscribe(control, chSpeed, 0, true)
	cl.Subscribe(actuator, chCmd, 4, false)

	dasB := cl.AddDAS("B", NonSafetyCritical)
	nB := cl.AddNetwork(dasB, "B.et", vnet.EventTriggered)
	nB.AddEndpoint(1, 60, 6)
	bursty := &BurstyJob{Out: chBurst, MeanPerRound: 2}
	sink := &SinkJob{In: chBurst}
	bj := cl.AddJob(dasB, c1, "bursty", 1, bursty)
	sj := cl.AddJob(dasB, c2, "sink", 1, sink)
	cl.Produce(bj, nB, ChannelSpec{Channel: chBurst, Name: "burst", Min: 0, Max: 1e9})
	cl.Subscribe(sj, chBurst, 16, false)

	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return cl, bursty, sink
}

func TestPipelineEndToEnd(t *testing.T) {
	cl, _, _ := buildPipeline(t, 1)
	cl.RunRounds(context.Background(), 10)
	last, ok := cl.Env.LastActuation("brake")
	if !ok {
		t.Fatal("no actuation recorded")
	}
	if math.Abs(last.Value-60) > 1e-9 { // 30 × gain 2
		t.Errorf("actuated %v, want 60", last.Value)
	}
	// Every job executed every round.
	for _, d := range cl.DASs() {
		for _, j := range d.Jobs {
			if j.Steps != 10 {
				t.Errorf("job %s ran %d rounds, want 10", j, j.Steps)
			}
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	cl1, b1, s1 := buildPipeline(t, 99)
	cl2, b2, s2 := buildPipeline(t, 99)
	cl1.RunRounds(context.Background(), 50)
	cl2.RunRounds(context.Background(), 50)
	if s1.Received != s2.Received || b1.Rejected != b2.Rejected {
		t.Errorf("same seed diverged: recv %d vs %d, rej %d vs %d",
			s1.Received, s2.Received, b1.Rejected, b2.Rejected)
	}
	a1 := cl1.Env.Actuations("brake")
	a2 := cl2.Env.Actuations("brake")
	if len(a1) != len(a2) {
		t.Fatalf("actuation history lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("actuation %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestBurstyTrafficFlows(t *testing.T) {
	cl, bursty, sink := buildPipeline(t, 2)
	cl.RunRounds(context.Background(), 200)
	if sink.Received == 0 {
		t.Fatal("sink received nothing")
	}
	// Conservation: received ≤ sent-accepted; what is still queued or in
	// flight accounts for the difference (vnet's conservation property
	// checks the exact balance).
	net := cl.DAS("B").Networks[0]
	ep := net.Endpoint(1)
	if sink.Received > ep.TxMessages {
		t.Errorf("conservation violated: recv %d > tx %d", sink.Received, ep.TxMessages)
	}
	_ = bursty
}

func TestHaltedJobStopsPublishing(t *testing.T) {
	cl, _, _ := buildPipeline(t, 3)
	cl.RunRounds(context.Background(), 5)
	sensor := cl.DAS("A").JobNamed("sensor")
	sensor.Halted = true
	stepsAtHalt := sensor.Steps
	cl.RunRounds(context.Background(), 10)
	if sensor.Steps != stepsAtHalt {
		t.Errorf("halted job kept running: %d > %d", sensor.Steps, stepsAtHalt)
	}
	// State semantics: the communication controller keeps re-publishing the
	// last port state, but the sequence number freezes — the freshness
	// signal downstream detectors use.
	control := cl.DAS("A").JobNamed("control")
	in := control.InPort(chSpeed)
	seqAtHalt := in.Stats.LastSeq
	cl.RunRounds(context.Background(), 10)
	if in.Stats.LastSeq != seqAtHalt {
		t.Errorf("sequence advanced after producer halt: %d -> %d", seqAtHalt, in.Stats.LastSeq)
	}
	if in.Stats.Received == 0 {
		t.Error("state republication stopped entirely")
	}
}

func TestOutFaultPerturbsValues(t *testing.T) {
	cl, _, _ := buildPipeline(t, 4)
	sensor := cl.DAS("A").JobNamed("sensor")
	sensor.OutFault = func(ch vnet.ChannelID, payload []byte, now sim.Time) ([]byte, bool) {
		return vnet.FloatPayload(999), true // out-of-spec value
	}
	cl.RunRounds(context.Background(), 5)
	last, ok := cl.Env.LastActuation("brake")
	if !ok {
		t.Fatal("no actuation")
	}
	if last.Value != 1998 { // 999 × 2
		t.Errorf("fault did not propagate: %v", last.Value)
	}
	spec, _ := cl.Spec(chSpeed)
	if spec.Conforms(999) {
		t.Error("999 conforms to a [0,100] spec")
	}
}

func TestSensorFault(t *testing.T) {
	cl, _, _ := buildPipeline(t, 5)
	sensor := cl.DAS("A").JobNamed("sensor")
	sensor.SensorFault = func(name string, v float64, now sim.Time) float64 {
		return v + 50 // drift
	}
	cl.RunRounds(context.Background(), 5)
	last, _ := cl.Env.LastActuation("brake")
	if last.Value != 160 { // (30+50) × 2
		t.Errorf("sensor drift not applied: %v", last.Value)
	}
}

func TestTMRVoterMasksSingleFault(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(4, 250*sim.Microsecond, 64), 7)
	comps := make([]*Component, 4)
	for i := range comps {
		comps[i] = cl.AddComponent(tt.NodeID(i), "c", float64(i), 0)
	}
	cl.Env.DefineConst("p", 10)
	das := cl.AddDAS("S", SafetyCritical)
	n := cl.AddNetwork(das, "S.tt", vnet.TimeTriggered)
	for i := 0; i < 3; i++ {
		n.AddEndpoint(tt.NodeID(i), 20, 0)
	}
	var reps [3]*Instance
	for i := 0; i < 3; i++ {
		reps[i] = cl.AddJob(das, comps[i], "rep", 0, &SensorJob{Signal: "p", Out: vnet.ChannelID(20 + i)})
		cl.Produce(reps[i], n, ChannelSpec{Channel: vnet.ChannelID(20 + i), Min: 0, Max: 100, MaxAgeRounds: 3})
	}
	voter := &VoterJob{Ins: [3]vnet.ChannelID{20, 21, 22}, Tolerance: 0.5}
	vj := cl.AddJob(das, comps[3], "voter", 0, voter)
	for i := 0; i < 3; i++ {
		cl.Subscribe(vj, vnet.ChannelID(20+i), 0, true)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.RunRounds(context.Background(), 10)
	// Replica 1 develops an arbitrary value failure.
	reps[1].OutFault = func(ch vnet.ChannelID, p []byte, now sim.Time) ([]byte, bool) {
		return vnet.FloatPayload(-40), true
	}
	cl.RunRounds(context.Background(), 20)
	if voter.Voted < 25 {
		t.Errorf("voter succeeded only %d rounds", voter.Voted)
	}
	if voter.Disagreements[1] < 15 {
		t.Errorf("faulty replica disagreements = %d, want ≥15", voter.Disagreements[1])
	}
	if voter.Disagreements[0] != 0 || voter.Disagreements[2] != 0 {
		t.Errorf("healthy replicas flagged: %v", voter.Disagreements)
	}
	if voter.NoMajority != 0 {
		t.Errorf("majority lost %d rounds despite single fault", voter.NoMajority)
	}
}

func TestTMRVoterDetectsSilentReplica(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(4, 250*sim.Microsecond, 64), 8)
	comps := make([]*Component, 4)
	for i := range comps {
		comps[i] = cl.AddComponent(tt.NodeID(i), "c", float64(i), 0)
	}
	cl.Env.DefineConst("p", 5)
	das := cl.AddDAS("S", SafetyCritical)
	n := cl.AddNetwork(das, "S.tt", vnet.TimeTriggered)
	for i := 0; i < 3; i++ {
		n.AddEndpoint(tt.NodeID(i), 20, 0)
	}
	var reps [3]*Instance
	for i := 0; i < 3; i++ {
		reps[i] = cl.AddJob(das, comps[i], "rep", 0, &SensorJob{Signal: "p", Out: vnet.ChannelID(30 + i)})
		cl.Produce(reps[i], n, ChannelSpec{Channel: vnet.ChannelID(30 + i), Min: 0, Max: 100})
	}
	voter := &VoterJob{Ins: [3]vnet.ChannelID{30, 31, 32}, Tolerance: 0.5}
	vj := cl.AddJob(das, comps[3], "voter", 0, voter)
	for i := 0; i < 3; i++ {
		cl.Subscribe(vj, vnet.ChannelID(30+i), 0, true)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.RunRounds(context.Background(), 10)
	cl.Bus.SetAlive(2, false) // component hosting replica 2 dies
	cl.RunRounds(context.Background(), 20)
	if voter.Missing[2] < 15 {
		t.Errorf("silent replica missing-count = %d", voter.Missing[2])
	}
	if voter.NoMajority != 0 {
		t.Errorf("TMR lost majority with one dead replica")
	}
}

func TestComponentGeometry(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(2, 250, 32), 1)
	a := cl.AddComponent(0, "a", 0, 0)
	b := cl.AddComponent(1, "b", 3, 4)
	if d := a.DistanceTo(b); math.Abs(d-5) > 1e-9 {
		t.Errorf("distance = %v, want 5", d)
	}
	if a.DistanceTo(a) != 0 {
		t.Error("self distance != 0")
	}
}

func TestClusterAccessors(t *testing.T) {
	cl, _, _ := buildPipeline(t, 6)
	if len(cl.Components()) != 3 {
		t.Errorf("Components() = %d", len(cl.Components()))
	}
	if cl.Component(1).Name != "center" {
		t.Error("Component(1) wrong")
	}
	if cl.DAS("A") == nil || cl.DAS("zzz") != nil {
		t.Error("DAS lookup wrong")
	}
	if got := cl.Producer(chSpeed); got == nil || got.Name != "sensor" {
		t.Errorf("Producer(chSpeed) = %v", got)
	}
	if cl.Producer(999) != nil {
		t.Error("Producer(unknown) != nil")
	}
	if s, ok := cl.Spec(chCmd); !ok || s.Max != 200 {
		t.Error("Spec lookup wrong")
	}
	if NonSafetyCritical.String() == SafetyCritical.String() {
		t.Error("criticality strings collide")
	}
}

func TestOnRoundFiresWithDeadComponents(t *testing.T) {
	cl, _, _ := buildPipeline(t, 10)
	rounds := 0
	cl.OnRound(func(round int64, now sim.Time) { rounds++ })
	cl.Bus.SetAlive(0, false)
	cl.Bus.SetAlive(1, false)
	cl.Bus.SetAlive(2, false)
	cl.RunRounds(context.Background(), 5)
	if rounds != 5 {
		t.Errorf("OnRound fired %d times with dead cluster, want 5", rounds)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(2, 250, 32), 1)
	cl.AddComponent(0, "a", 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate component id accepted")
			}
		}()
		cl.AddComponent(0, "dup", 0, 0)
	}()
	cl.AddDAS("X", NonSafetyCritical)
	defer func() {
		if recover() == nil {
			t.Error("duplicate DAS accepted")
		}
	}()
	cl.AddDAS("X", NonSafetyCritical)
}
