package component

import (
	"context"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

const (
	chSrc vnet.ChannelID = 40 // produced on DAS X's network
	chDst vnet.ChannelID = 41 // republished on DAS Y's network
)

// buildGateway wires: producer(X, c0) → [gateway @ c1] → consumer(Y, c2).
func buildGateway(t *testing.T, meanPerRound float64, maxPerRound int) (*Cluster, *GatewayJob, *SinkJob) {
	t.Helper()
	cl := NewCluster(tt.UniformSchedule(3, 250*sim.Microsecond, 128), 5)
	c0 := cl.AddComponent(0, "src", 0, 0)
	c1 := cl.AddComponent(1, "gw", 1, 0)
	c2 := cl.AddComponent(2, "dst", 2, 0)

	dasX := cl.AddDAS("X", NonSafetyCritical)
	nX := cl.AddNetwork(dasX, "X.et", vnet.EventTriggered)
	nX.AddEndpoint(0, 60, 32)
	src := cl.AddJob(dasX, c0, "src", 0, &BurstyJob{Out: chSrc, MeanPerRound: meanPerRound})
	cl.Produce(src, nX, ChannelSpec{Channel: chSrc, Name: "src", Min: -1e12, Max: 1e12})

	dasY := cl.AddDAS("Y", NonSafetyCritical)
	nY := cl.AddNetwork(dasY, "Y.et", vnet.EventTriggered)
	nY.AddEndpoint(1, 60, 32)
	gw := &GatewayJob{Routes: []GatewayRoute{{In: chSrc, Out: chDst, MaxPerRound: maxPerRound}}}
	gwJob := cl.AddJob(dasY, c1, "gateway", 0, gw)
	cl.Subscribe(gwJob, chSrc, 32, false)
	cl.Produce(gwJob, nY, ChannelSpec{Channel: chDst, Name: "dst", Min: -1e12, Max: 1e12})

	sink := &SinkJob{In: chDst}
	sj := cl.AddJob(dasY, c2, "sink", 0, sink)
	cl.Subscribe(sj, chDst, 32, false)

	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return cl, gw, sink
}

func TestGatewayForwardsAcrossDASs(t *testing.T) {
	cl, gw, sink := buildGateway(t, 1, 4)
	cl.RunRounds(context.Background(), 300)
	if sink.Received == 0 {
		t.Fatal("nothing crossed the gateway")
	}
	if gw.Forwarded[0] < sink.Received {
		t.Errorf("forwarded %d < received %d", gw.Forwarded[0], sink.Received)
	}
	// Low traffic, generous bound: nothing rate-limited.
	if gw.RateLimited[0] != 0 {
		t.Errorf("rate-limited %d messages under light load", gw.RateLimited[0])
	}
}

func TestGatewayRateBoundsSourceDAS(t *testing.T) {
	// A flooding source DAS cannot push more than MaxPerRound into the
	// destination DAS.
	cl, gw, sink := buildGateway(t, 8, 1)
	cl.RunRounds(context.Background(), 400)
	if gw.RateLimited[0] == 0 {
		t.Error("flood was not rate-limited")
	}
	if sink.Received > 400 {
		t.Errorf("destination received %d > 1/round bound", sink.Received)
	}
	_ = cl
}

func TestGatewayTransform(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(2, 250*sim.Microsecond, 128), 6)
	c0 := cl.AddComponent(0, "src", 0, 0)
	c1 := cl.AddComponent(1, "gw", 1, 0)
	cl.Env.DefineConst("v", 10)

	dasX := cl.AddDAS("X", NonSafetyCritical)
	nX := cl.AddNetwork(dasX, "X.tt", vnet.TimeTriggered)
	nX.AddEndpoint(0, 30, 0)
	src := cl.AddJob(dasX, c0, "src", 0, &SensorJob{Signal: "v", Out: chSrc})
	cl.Produce(src, nX, ChannelSpec{Channel: chSrc, Min: 0, Max: 100})

	dasY := cl.AddDAS("Y", NonSafetyCritical)
	nY := cl.AddNetwork(dasY, "Y.tt", vnet.TimeTriggered)
	nY.AddEndpoint(1, 30, 0)
	// Unit conversion: ×2.
	gw := &GatewayJob{Routes: []GatewayRoute{{
		In: chSrc, Out: chDst,
		Transform: func(p []byte) []byte {
			return vnet.FloatPayload(vnet.Message{Payload: p}.Float() * 2)
		},
	}}}
	gwJob := cl.AddJob(dasY, c1, "gateway", 0, gw)
	cl.Subscribe(gwJob, chSrc, 4, false)
	cl.Produce(gwJob, nY, ChannelSpec{Channel: chDst, Min: 0, Max: 200})

	probe := cl.AddJob(dasY, c0, "probe", 1, JobFunc(func(ctx *Context) {
		if m, ok := ctx.Latest(chDst); ok {
			ctx.Actuate("out", m.Float())
		}
	}))
	cl.Subscribe(probe, chDst, 0, true)

	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.RunRounds(context.Background(), 20)
	last, ok := cl.Env.LastActuation("out")
	if !ok || last.Value != 20 {
		t.Errorf("transformed value = %v ok=%v, want 20", last.Value, ok)
	}
}
