package vnet

import (
	"testing"
	"testing/quick"

	"decos/internal/sim"
	"decos/internal/tt"
)

// Property: over a lossless channel, every accepted message is either
// delivered to the subscriber or still waiting in the sender queue —
// no message is duplicated or silently dropped, for any traffic pattern
// and queue dimensioning.
func TestETConservationProperty(t *testing.T) {
	f := func(seed uint64, queueCap8, rounds8, burst8 uint8) bool {
		queueCap := int(queueCap8%16) + 1
		rounds := int(rounds8%50) + 1
		burstMean := float64(burst8%5) + 0.5

		cfg := tt.UniformSchedule(1, 250, 64)
		fab := NewFabric(cfg, sim.NewRNG(seed))
		n := NewNetwork("p", EventTriggered, "p")
		ep := n.AddEndpoint(0, 40, queueCap)
		n.DeclareChannel(1, 0)
		fab.AddNetwork(n)
		in := fab.Subscribe(0, 1, 0, false)
		if err := fab.Seal(); err != nil {
			return false
		}

		rng := sim.NewRNG(seed ^ 0xabcd)
		for r := 0; r < rounds; r++ {
			k := rng.Poisson(burstMean)
			for i := 0; i < k; i++ {
				n.Send(1, FloatPayload(float64(i)), sim.Time(r))
			}
			payload := fab.BuildPayload(0)
			consume(fab, tt.Frame{Sender: 0, Round: int64(r), Payload: payload}, tt.FrameOK, sim.Time(r), 0)
		}
		// Conservation: accepted = delivered + still queued at sender.
		return ep.TxMessages == in.Stats.Received+len(ep.outQueue)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sequence numbers observed by a subscriber are strictly
// increasing across any pattern of frame losses — gaps may appear but
// never reordering or duplication.
func TestSeqMonotoneUnderLossProperty(t *testing.T) {
	f := func(seed uint64, dropPattern uint32) bool {
		cfg := tt.UniformSchedule(1, 250, 64)
		fab := NewFabric(cfg, sim.NewRNG(seed))
		n := NewNetwork("p", EventTriggered, "p")
		n.AddEndpoint(0, 40, 64)
		n.DeclareChannel(1, 0)
		fab.AddNetwork(n)
		in := fab.Subscribe(0, 1, 0, false)
		if err := fab.Seal(); err != nil {
			return false
		}
		for r := 0; r < 32; r++ {
			n.Send(1, FloatPayload(float64(r)), sim.Time(r))
			payload := fab.BuildPayload(0)
			st := tt.FrameOK
			if dropPattern&(1<<uint(r)) != 0 {
				st = tt.FrameOmitted
				payload = nil
			}
			consume(fab, tt.Frame{Sender: 0, Round: int64(r), Payload: payload}, st, sim.Time(r), 0)
		}
		last := int64(-1)
		for {
			m, ok := in.Receive()
			if !ok {
				break
			}
			if int64(m.Seq) <= last {
				return false
			}
			last = int64(m.Seq)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the fixed frame layout means one network's traffic volume can
// never displace another network's segment — a TT state message survives
// any ET flood.
func TestEncapsulationProperty(t *testing.T) {
	f := func(seed uint64, flood uint16) bool {
		cfg := tt.UniformSchedule(1, 250, 96)
		fab := NewFabric(cfg, sim.NewRNG(seed))
		ttn := NewNetwork("tt", TimeTriggered, "a")
		ttn.AddEndpoint(0, 20, 0)
		ttn.DeclareChannel(1, 0)
		etn := NewNetwork("et", EventTriggered, "b")
		etn.AddEndpoint(0, 40, 8)
		etn.DeclareChannel(2, 0)
		fab.AddNetwork(ttn)
		fab.AddNetwork(etn)
		in := fab.Subscribe(0, 1, 0, true)
		if err := fab.Seal(); err != nil {
			return false
		}
		for i := 0; i < int(flood%2000); i++ {
			etn.Send(2, FloatPayload(1), 0)
		}
		ttn.Send(1, FloatPayload(7), 0)
		consume(fab, tt.Frame{Sender: 0, Payload: fab.BuildPayload(0)}, tt.FrameOK, 0, 0)
		m, ok := in.Peek()
		return ok && m.Float() == 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
