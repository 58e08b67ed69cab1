package vnet

import (
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
)

// buildFabric wires a 3-node cluster with one TT network (channels 1,2
// produced by nodes 0,1) and one ET network (channel 10 produced by node 0).
func buildFabric(t *testing.T) (*Fabric, *Network, *Network) {
	t.Helper()
	cfg := tt.UniformSchedule(3, 250*sim.Microsecond, 128)
	f := NewFabric(cfg, sim.NewRNG(1))

	ttn := NewNetwork("dasA.tt", TimeTriggered, "dasA")
	ttn.AddEndpoint(0, 40, 0)
	ttn.AddEndpoint(1, 40, 0)
	ttn.DeclareChannel(1, 0)
	ttn.DeclareChannel(2, 1)

	etn := NewNetwork("dasB.et", EventTriggered, "dasB")
	etn.AddEndpoint(0, 40, 8)
	etn.DeclareChannel(10, 0)

	f.AddNetwork(ttn)
	f.AddNetwork(etn)
	return f, ttn, etn
}

func TestFabricSealLayout(t *testing.T) {
	f, _, _ := buildFabric(t)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	// Node 0 carries both networks (40+40 ≤ 128), node 1 only the TT one.
	if got := len(f.layout(0)); got != 2 {
		t.Errorf("node 0 segments = %d, want 2", got)
	}
	if got := len(f.layout(1)); got != 1 {
		t.Errorf("node 1 segments = %d, want 1", got)
	}
}

func TestFabricSealOverflow(t *testing.T) {
	cfg := tt.UniformSchedule(2, 250, 16)
	f := NewFabric(cfg, sim.NewRNG(1))
	n := NewNetwork("big", TimeTriggered, "x")
	n.AddEndpoint(0, 64, 0)
	n.DeclareChannel(1, 0)
	f.AddNetwork(n)
	if err := f.Seal(); err == nil {
		t.Error("over-allocated layout accepted")
	}
}

func TestTTStateDelivery(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	in := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}

	ttn.Send(1, FloatPayload(42), 0)
	payload := f.BuildPayload(0)
	fr := tt.Frame{Round: 0, Slot: 0, Sender: 0, Payload: payload, Status: tt.FrameOK}
	f.ConsumeFrame(2, fr, tt.FrameOK, 100)

	m, ok := in.Peek()
	if !ok || m.Float() != 42 {
		t.Fatalf("TT state not delivered: ok=%v v=%v", ok, m.Float())
	}
	// State semantics: a newer value replaces, and is re-published every
	// round even without a new Send.
	ttn.Send(1, FloatPayload(43), 200)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 300)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 400)
	if in.QueueLen() != 1 {
		t.Errorf("overwrite port queue = %d, want 1", in.QueueLen())
	}
	m, _ = in.Peek()
	if m.Float() != 43 {
		t.Errorf("latest state = %v, want 43", m.Float())
	}
	if in.Stats.Received != 3 {
		t.Errorf("received = %d, want 3 (republished state)", in.Stats.Received)
	}
}

func TestETQueueFIFOAndAllocationLimit(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 16, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}

	// 8-byte payload → wire size 17; 40-byte segment fits 2 per round.
	for i := 0; i < 5; i++ {
		if !etn.Send(10, FloatPayload(float64(i)), 0) {
			t.Fatalf("send %d rejected", i)
		}
	}
	ep := etn.Endpoint(0)
	payload := f.BuildPayload(0)
	if ep.QueueLen() != 3 {
		t.Errorf("queue after first round = %d, want 3", ep.QueueLen())
	}
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: payload}, tt.FrameOK, 100)
	if in.QueueLen() != 2 {
		t.Errorf("delivered %d messages, want 2", in.QueueLen())
	}
	m, _ := in.Receive()
	if m.Float() != 0 {
		t.Errorf("FIFO violated: first = %v", m.Float())
	}
	// Next round drains the remainder.
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 200)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 300)
	total := in.QueueLen()
	for _, want := range []float64{1, 2, 3, 4} {
		m, ok := in.Receive()
		if !ok || m.Float() != want {
			t.Fatalf("expected %v, got %v (ok=%v), queued=%d", want, m.Float(), ok, total)
		}
	}
}

func TestETSenderOverflow(t *testing.T) {
	f, _, etn := buildFabric(t)
	f.Subscribe(1, 10, 0, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	ep := etn.Endpoint(0)
	accepted := 0
	for i := 0; i < 12; i++ {
		if etn.Send(10, FloatPayload(1), 0) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Errorf("accepted %d sends with QueueCap=8", accepted)
	}
	if ep.TxOverflows != 4 {
		t.Errorf("TxOverflows = %d, want 4", ep.TxOverflows)
	}
}

func TestReceiveQueueOverflow(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 1, false) // capacity 1: misconfigured consumer
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	etn.Send(10, FloatPayload(1), 0)
	etn.Send(10, FloatPayload(2), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 100)
	if in.Stats.Overflows != 1 {
		t.Errorf("Overflows = %d, want 1", in.Stats.Overflows)
	}
	if in.QueueLen() != 1 {
		t.Errorf("queue = %d, want 1", in.QueueLen())
	}
}

func TestFrameMissRecordedOnOmission(t *testing.T) {
	f, _, _ := buildFabric(t)
	inTT := f.Subscribe(2, 1, 0, true)
	inET := f.Subscribe(2, 10, 4, false)
	inOther := f.Subscribe(2, 2, 0, true) // produced by node 1, not node 0
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	f.ConsumeFrame(2, tt.Frame{Sender: 0}, tt.FrameOmitted, 100)
	if inTT.Stats.FrameMisses != 1 || inET.Stats.FrameMisses != 1 {
		t.Errorf("misses TT=%d ET=%d, want 1/1", inTT.Stats.FrameMisses, inET.Stats.FrameMisses)
	}
	if inOther.Stats.FrameMisses != 0 {
		t.Errorf("channel of another producer recorded a miss")
	}
	f.ConsumeFrame(2, tt.Frame{Sender: 0}, tt.FrameTiming, 200)
	if inTT.Stats.FrameMisses != 2 {
		t.Errorf("timing failure not recorded as miss")
	}
}

func TestCorruptionConsistentAcrossReceivers(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	in1 := f.Subscribe(1, 1, 0, true)
	in2 := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	crcSplit := 0
	for round := int64(0); round < 200; round++ {
		ttn.Send(1, FloatPayload(7), sim.Time(round*1000))
		fr := tt.Frame{Round: round, Slot: 0, Sender: 0, Payload: f.BuildPayload(0),
			Status: tt.FrameCorrupted, CorruptBits: 2}
		before1, before2 := in1.Stats.CRCFailures, in2.Stats.CRCFailures
		f.ConsumeFrame(1, fr, tt.FrameCorrupted, sim.Time(round*1000))
		f.ConsumeFrame(2, fr, tt.FrameCorrupted, sim.Time(round*1000))
		d1, d2 := in1.Stats.CRCFailures-before1, in2.Stats.CRCFailures-before2
		if d1 != d2 {
			crcSplit++
		}
	}
	if crcSplit != 0 {
		t.Errorf("%d/200 corrupted frames observed differently by two receivers", crcSplit)
	}
	if in1.Stats.CRCFailures == 0 {
		t.Error("no CRC failures from corrupted frames")
	}
}

func TestSeqGapDetection(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 0, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	etn.Send(10, FloatPayload(1), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 0)
	// Two messages are sent but the frame carrying them is lost.
	etn.Send(10, FloatPayload(2), 0)
	etn.Send(10, FloatPayload(3), 0)
	f.BuildPayload(0) // drains the queue onto the (lost) frame
	f.ConsumeFrame(1, tt.Frame{Sender: 0}, tt.FrameOmitted, 100)
	// Next message arrives with a sequence gap.
	etn.Send(10, FloatPayload(4), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 200)
	if in.Stats.SeqGaps != 1 {
		t.Errorf("SeqGaps = %d, want 1", in.Stats.SeqGaps)
	}
	if in.Stats.FrameMisses != 1 {
		t.Errorf("FrameMisses = %d, want 1", in.Stats.FrameMisses)
	}
}

func TestEncapsulationIsolation(t *testing.T) {
	// A flooding producer on the ET network cannot disturb the TT network's
	// segment: the layout is fixed per network.
	f, ttn, etn := buildFabric(t)
	inTT := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		etn.Send(10, FloatPayload(float64(i)), 0) // mostly overflows
	}
	ttn.Send(1, FloatPayload(5), 0)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 100)
	if m, ok := inTT.Peek(); !ok || m.Float() != 5 {
		t.Errorf("TT traffic disturbed by ET flood: ok=%v v=%v", ok, m.Float())
	}
	if etn.Endpoint(0).TxOverflows == 0 {
		t.Error("flood did not overflow the encapsulated queue")
	}
}

func TestSubscribeUnknownChannelPanics(t *testing.T) {
	f, _, _ := buildFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Subscribe(0, 999, 0, false)
}

func TestNetworkDeclarationPanics(t *testing.T) {
	n := NewNetwork("x", TimeTriggered, "d")
	n.AddEndpoint(0, 16, 0)
	for name, fn := range map[string]func(){
		"zero channel":       func() { n.DeclareChannel(0, 0) },
		"missing endpoint":   func() { n.DeclareChannel(5, 3) },
		"duplicate endpoint": func() { n.AddEndpoint(0, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	n.DeclareChannel(5, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate channel: no panic")
			}
		}()
		n.DeclareChannel(5, 0)
	}()
}

func TestNetworkAccessors(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	if f.Network("dasA.tt") != ttn || f.Network("nope") != nil {
		t.Error("Network lookup wrong")
	}
	chs := ttn.Channels()
	if len(chs) != 2 || chs[0] != 1 || chs[1] != 2 {
		t.Errorf("Channels() = %v", chs)
	}
	if p, ok := ttn.Producer(2); !ok || p != 1 {
		t.Errorf("Producer(2) = %v,%v", p, ok)
	}
	if TimeTriggered.String() != "TT" || EventTriggered.String() != "ET" {
		t.Error("Kind.String wrong")
	}
}
