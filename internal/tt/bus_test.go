package tt

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"decos/internal/clock"
	"decos/internal/sim"
)

// recController is a minimal controller that records everything it
// observes; receive feeds it the slots its node receives.
type recController struct {
	id       NodeID
	payload  []byte
	built    []int // slots in which BuildFrame was called
	statuses []FrameStatus
	senders  []NodeID
	rounds   []int64
}

func (r *recController) BuildFrame(round int64, slot int) []byte {
	r.built = append(r.built, slot)
	return r.payload
}

// receive is a Reception that hands every powered node's status to its
// recController.
func receive(ctrls []*recController) Reception {
	return func(f *Frame, per []FrameStatus, powered []bool) {
		for _, r := range ctrls {
			if powered[r.id] {
				r.statuses = append(r.statuses, per[r.id])
				r.senders = append(r.senders, f.Sender)
			}
		}
	}
}

func (r *recController) OnRoundEnd(round int64) { r.rounds = append(r.rounds, round) }

func newCluster(t *testing.T, n int) (*sim.Scheduler, *Bus, []*recController) {
	t.Helper()
	sched := sim.NewScheduler()
	cfg := UniformSchedule(n, 250*sim.Microsecond, 32)
	bus := NewBus(cfg, sched)
	ctrls := make([]*recController, n)
	for i := 0; i < n; i++ {
		ctrls[i] = &recController{id: NodeID(i), payload: []byte{byte(i)}}
		bus.Attach(NodeID(i), ctrls[i])
	}
	bus.SetReception(receive(ctrls))
	bus.Start()
	return sched, bus, ctrls
}

func runRounds(sched *sim.Scheduler, cfg Config, rounds int64) {
	// Stop just before the first slot of the next round.
	sched.RunUntil(context.Background(), sim.Time(rounds*cfg.RoundDuration().Micros()-1))
}

func TestConfigValidate(t *testing.T) {
	good := UniformSchedule(4, 250, 32)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SlotDuration: 0, Slots: []NodeID{0}, PayloadBytes: 8},
		{SlotDuration: 250, Slots: nil, PayloadBytes: 8},
		{SlotDuration: 250, Slots: []NodeID{0}, PayloadBytes: 0},
		{SlotDuration: 250, Slots: []NodeID{NoNode}, PayloadBytes: 8},
		{SlotDuration: 250, Slots: []NodeID{-7}, PayloadBytes: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := UniformSchedule(4, 250*sim.Microsecond, 32)
	if cfg.RoundDuration() != sim.Millisecond {
		t.Errorf("RoundDuration = %v, want 1ms", cfg.RoundDuration())
	}
	if got := cfg.SlotStart(2, 1); got != sim.Time(2*1000+250) {
		t.Errorf("SlotStart(2,1) = %v", got)
	}
	nodes := cfg.Nodes()
	if len(nodes) != 4 || nodes[0] != 0 || nodes[3] != 3 {
		t.Errorf("Nodes() = %v", nodes)
	}
}

func TestBusDeliversAllFramesToAllNodes(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 4)
	runRounds(sched, bus.Cfg, 3)
	for i, c := range ctrls {
		if len(c.built) != 3 {
			t.Errorf("node %d built %d frames, want 3", i, len(c.built))
		}
		if len(c.statuses) != 12 {
			t.Errorf("node %d observed %d slots, want 12", i, len(c.statuses))
		}
		for j, st := range c.statuses {
			if st != FrameOK {
				t.Errorf("node %d slot %d status %v", i, j, st)
			}
		}
		if len(c.rounds) != 3 || c.rounds[2] != 2 {
			t.Errorf("node %d rounds %v", i, c.rounds)
		}
	}
}

func TestBusLoopback(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 2)
	runRounds(sched, bus.Cfg, 1)
	// Node 0 observes its own frame (sender 0) and node 1's.
	if ctrls[0].senders[0] != 0 || ctrls[0].senders[1] != 1 {
		t.Errorf("loopback senders = %v", ctrls[0].senders)
	}
	_ = bus
}

func TestFailSilentNodeOmitsAndLeavesMembership(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 4)
	runRounds(sched, bus.Cfg, 2)
	bus.SetAlive(2, false)
	runRounds(sched, bus.Cfg, 5)

	// Every live node saw omissions from node 2 after round 2.
	for _, obs := range []int{0, 1, 3} {
		c := ctrls[obs]
		last := c.statuses[len(c.statuses)-2] // slot of node 2 in final round
		if last != FrameOmitted {
			t.Errorf("node %d saw %v from dead node, want omitted", obs, last)
		}
	}
	// Membership: views of live nodes agree and exclude node 2.
	round := bus.Round()
	for _, obs := range []NodeID{0, 1, 3} {
		m := bus.Membership(obs)
		if m.Member(2, round) {
			t.Errorf("node %d still counts dead node 2 as member", obs)
		}
		if !m.Member(0, round) || !m.Member(1, round) || !m.Member(3, round) {
			t.Errorf("node %d dropped a live member", obs)
		}
		if !m.Agrees(bus.Membership(0), round) {
			t.Errorf("membership views disagree (node %d vs 0)", obs)
		}
	}
	if bus.Membership(0).failCount[2] == 0 {
		t.Error("no failures recorded for dead node")
	}
}

func TestGuardianBlocksBabbling(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 4)
	bus.SetBabbling(3, true)
	runRounds(sched, bus.Cfg, 4)
	// Guardian blocked 3 foreign-slot attempts per round.
	if bus.GuardianBlocks != 12 {
		t.Errorf("GuardianBlocks = %d, want 12", bus.GuardianBlocks)
	}
	// No receiver saw any corruption: strong fault isolation (C3).
	for i, c := range ctrls {
		for j, st := range c.statuses {
			if st != FrameOK {
				t.Errorf("node %d slot %d status %v despite guardian", i, j, st)
			}
		}
	}
}

func TestBabblingWithoutGuardianCorruptsBus(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 4)
	bus.GuardianEnabled = false
	bus.SetBabbling(3, true)
	runRounds(sched, bus.Cfg, 2)
	corrupted := 0
	for _, st := range ctrls[0].statuses {
		if st == FrameCorrupted {
			corrupted++
		}
	}
	// Slots of nodes 0,1,2 are destroyed each round; node 3's own slot is fine.
	if corrupted != 6 {
		t.Errorf("corrupted slots = %d, want 6", corrupted)
	}
}

func TestTxFaultSeenByAllReceivers(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 3)
	id := bus.AddTxFault(func(f *Frame) {
		if f.Sender == 1 {
			f.Status = FrameCorrupted
			f.CorruptBits = 3
		}
	})
	runRounds(sched, bus.Cfg, 1)
	for i, c := range ctrls {
		if c.statuses[1] != FrameCorrupted {
			t.Errorf("node %d saw %v for corrupted frame", i, c.statuses[1])
		}
	}
	bus.RemoveFault(id)
	runRounds(sched, bus.Cfg, 2)
	for i, c := range ctrls {
		if st := c.statuses[len(c.statuses)-2]; st != FrameOK {
			t.Errorf("node %d still sees fault after removal: %v", i, st)
		}
	}
}

func TestRxFaultAffectsOnlyOneReceiver(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 3)
	// Inbound connector fault at node 2: it sees omissions from everyone.
	bus.AddRxFault(func(rcv NodeID, f *Frame, st FrameStatus) FrameStatus {
		if rcv == 2 {
			return FrameOmitted
		}
		return st
	})
	runRounds(sched, bus.Cfg, 2)
	for _, st := range ctrls[2].statuses {
		if st != FrameOmitted {
			t.Errorf("node 2 saw %v, want omitted", st)
		}
	}
	for _, i := range []int{0, 1} {
		for _, st := range ctrls[i].statuses {
			if st != FrameOK {
				t.Errorf("node %d saw %v, want ok", i, st)
			}
		}
	}
}

func TestOutOfSyncSenderProducesTimingFailures(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := UniformSchedule(4, 250*sim.Microsecond, 32)
	bus := NewBus(cfg, sched)
	rng := sim.NewRNG(5)
	bus.Clocks = clock.NewCluster(4, 50, 0, 20, 1, rng)
	ctrls := make([]*recController, 4)
	for i := range ctrls {
		ctrls[i] = &recController{id: NodeID(i), payload: []byte{byte(i)}}
		bus.Attach(NodeID(i), ctrls[i])
	}
	bus.SetReception(receive(ctrls))
	bus.Start()
	// Defective quartz on node 1.
	bus.Clocks.Oscillators[1].DriftPPM = 100000
	runRounds(sched, cfg, 50)
	if bus.Clocks.InSync(1) {
		t.Fatal("node 1 never lost sync")
	}
	// After sync loss, receivers classify node 1's frames as timing failures.
	last := ctrls[0].statuses[len(ctrls[0].statuses)-3] // node 1 slot in last round
	if last != FrameTiming {
		t.Errorf("status from out-of-sync sender = %v, want timing", last)
	}
	round := bus.Round()
	if bus.Membership(0).Member(1, round) {
		t.Error("out-of-sync node still a member")
	}
}

func TestPayloadTruncatedToConfiguredSize(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := UniformSchedule(2, 250*sim.Microsecond, 4)
	bus := NewBus(cfg, sched)
	big := &recController{id: 0, payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	small := &recController{id: 1, payload: []byte{9}}
	bus.Attach(0, big)
	bus.Attach(1, small)
	var got []byte
	bus.Observe(func(f *Frame, _ []FrameStatus) {
		if f.Sender == 0 {
			got = f.Payload
		}
	})
	bus.Start()
	runRounds(sched, cfg, 1)
	if len(got) != 4 {
		t.Errorf("payload length = %d, want truncation to 4", len(got))
	}
}

func TestObserverSeesPerReceiverStatus(t *testing.T) {
	sched, bus, _ := newCluster(t, 3)
	bus.AddRxFault(func(rcv NodeID, f *Frame, st FrameStatus) FrameStatus {
		if rcv == 1 && f.Sender == 0 {
			return FrameCorrupted
		}
		return st
	})
	var sawSplit bool
	bus.Observe(func(f *Frame, per []FrameStatus) {
		if f.Sender == 0 && per[1] == FrameCorrupted && per[0] == FrameOK && per[2] == FrameOK {
			sawSplit = true
		}
	})
	runRounds(sched, bus.Cfg, 1)
	if !sawSplit {
		t.Error("observer did not see per-receiver status split")
	}
}

func TestAttachAfterStartPanics(t *testing.T) {
	sched := sim.NewScheduler()
	bus := NewBus(UniformSchedule(1, 250, 8), sched)
	bus.Attach(0, &recController{})
	bus.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("Attach after Start did not panic")
		}
	}()
	bus.Attach(1, &recController{})
}

func TestStartWithMissingControllerPanics(t *testing.T) {
	sched := sim.NewScheduler()
	bus := NewBus(UniformSchedule(2, 250, 8), sched)
	bus.Attach(0, &recController{})
	defer func() {
		if recover() == nil {
			t.Fatal("Start with unattached node did not panic")
		}
	}()
	bus.Start()
}

func TestSlotTimingIsPredictable(t *testing.T) {
	// Core service C1: transport latency is exactly the schedule.
	sched := sim.NewScheduler()
	cfg := UniformSchedule(4, 250*sim.Microsecond, 8)
	bus := NewBus(cfg, sched)
	for i := 0; i < 4; i++ {
		bus.Attach(NodeID(i), &recController{payload: []byte{1}})
	}
	var times []sim.Time
	bus.Observe(func(f *Frame, _ []FrameStatus) { times = append(times, f.At) })
	bus.Start()
	runRounds(sched, cfg, 2)
	for i, at := range times {
		want := sim.Time(int64(i) * 250)
		if at != want {
			t.Fatalf("slot %d fired at %v, want %v", i, at, want)
		}
	}
}

func TestSetAliveUnattachedPanics(t *testing.T) {
	_, bus, _ := newCluster(t, 2)
	cases := []struct {
		name string
		call func()
	}{
		{"SetAlive", func() { bus.SetAlive(NodeID(7), false) }},
		{"SetBabbling", func() { bus.SetBabbling(NodeID(7), true) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on unattached node did not panic", tc.name)
				}
			}()
			tc.call()
		})
	}
	// Attached nodes stay togglable.
	bus.SetAlive(1, false)
	bus.SetBabbling(1, true)
	bus.SetBabbling(1, false)
	bus.SetAlive(1, true)
}

// TestReceptionOncePerSlot pins the reception contract: one call per
// slot, after every attached node's receiver-side faults (in node order)
// and membership update, before the slot observers, carrying the statuses
// the faults left.
func TestReceptionOncePerSlot(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := UniformSchedule(4, 250*sim.Microsecond, 32)
	bus := NewBus(cfg, sched)
	for i := 0; i < 4; i++ {
		bus.Attach(NodeID(i), &recController{payload: []byte{byte(i)}})
	}
	var log []string
	bus.AddRxFault(func(rcv NodeID, f *Frame, st FrameStatus) FrameStatus {
		log = append(log, fmt.Sprintf("rx%d", rcv))
		if rcv == 3 {
			return FrameCorrupted
		}
		return st
	})
	receptions := 0
	bus.SetReception(func(f *Frame, per []FrameStatus, powered []bool) {
		receptions++
		log = append(log, "reception")
		for n := NodeID(0); n < 4; n++ {
			if got := bus.Membership(n).lastSeen[f.Sender]; got != f.Round {
				t.Errorf("round %d slot %d: node %d's membership last saw round %d at reception", f.Round, f.Slot, n, got)
			}
			want := FrameOK
			if n == 3 {
				want = FrameCorrupted
			}
			if per[n] != want || !powered[n] {
				t.Errorf("round %d slot %d: node %d status %v powered %v, want %v powered", f.Round, f.Slot, n, per[n], powered[n], want)
			}
		}
	})
	bus.Observe(func(*Frame, []FrameStatus) { log = append(log, "observer") })
	bus.Start()
	runRounds(sched, cfg, 2)

	if receptions != 8 {
		t.Errorf("%d receptions in 8 slots, want one per slot", receptions)
	}
	slot := "rx0 rx1 rx2 rx3 reception observer"
	if got, want := strings.Join(log, " "), strings.TrimSpace(strings.Repeat(slot+" ", 8)); got != want {
		t.Errorf("call order\n%s\nwant\n%s", got, want)
	}
}

// TestPoweredOffNodeReceivesNothing powers node 2 off: it receives no
// slot, its own slots go out omitted, and the frame tallies count exactly
// that.
func TestPoweredOffNodeReceivesNothing(t *testing.T) {
	sched, bus, ctrls := newCluster(t, 4)
	runRounds(sched, bus.Cfg, 2)
	before := len(ctrls[2].statuses)
	bus.SetAlive(2, false)
	runRounds(sched, bus.Cfg, 5)
	if got := len(ctrls[2].statuses); got != before {
		t.Errorf("powered-off node 2 received %d slots", got-before)
	}
	for _, n := range []int{0, 1, 3} {
		if got := len(ctrls[n].statuses); got != 20 {
			t.Errorf("node %d received %d slots in 5 rounds, want 20", n, got)
		}
	}
	want := FrameCounts{Total: 20, OK: 17, Omitted: 3}
	if got := bus.FrameCounts(); got != want {
		t.Errorf("FrameCounts = %+v, want %+v", got, want)
	}
}
