package component

import (
	"context"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

func TestSensorSelfCheck(t *testing.T) {
	s := &SensorJob{PhysMin: 0, PhysMax: 100, FrozenWindow: 3}
	feed := func(vals ...float64) {
		for _, v := range vals {
			s.selfCheck(v)
		}
	}
	feed(10, 20, 30)
	if s.SelfCheck().TransducerSuspect {
		t.Error("healthy readings flagged")
	}
	feed(200)
	if !s.SelfCheck().TransducerSuspect {
		t.Error("out-of-range reading not flagged")
	}
	feed(10, 20)
	if s.SelfCheck().TransducerSuspect {
		t.Error("suspicion not cleared after recovery")
	}
	feed(42, 42, 42, 42)
	if r := s.SelfCheck(); !r.TransducerSuspect || r.Detail == "" {
		t.Errorf("frozen reading not flagged: %+v", r)
	}
	// NaN raw reading is physically impossible.
	nan := 0.0
	nan /= nan
	feed(nan)
	if !s.SelfCheck().TransducerSuspect {
		t.Error("NaN reading not flagged")
	}
}

func TestSensorSelfCheckDisabled(t *testing.T) {
	s := &SensorJob{} // no plausibility config: never suspect
	for _, v := range []float64{1e9, 42, 42, 42, 42, 42} {
		s.selfCheck(v)
	}
	if s.SelfCheck().TransducerSuspect {
		t.Error("checks fired without configuration")
	}
}

func TestControlJobHoldsLastGoodValue(t *testing.T) {
	cl := NewCluster(tt.UniformSchedule(2, 250*sim.Microsecond, 64), 3)
	c0 := cl.AddComponent(0, "a", 0, 0)
	c1 := cl.AddComponent(1, "b", 1, 0)
	cl.Env.DefineConst("x", 10)
	das := cl.AddDAS("D", NonSafetyCritical)
	n := cl.AddNetwork(das, "D.tt", vnet.TimeTriggered)
	n.AddEndpoint(0, 20, 0)
	n.AddEndpoint(1, 20, 0)

	src := cl.AddJob(das, c0, "src", 0, &SensorJob{Signal: "x", Out: 1})
	ctl := &ControlJob{In: 1, Out: 2, Gain: 3, InMin: 0, InMax: 50}
	ctlJob := cl.AddJob(das, c1, "ctl", 0, ctl)
	cl.Produce(src, n, ChannelSpec{Channel: 1, Min: 0, Max: 100})
	cl.Produce(ctlJob, n, ChannelSpec{Channel: 2, Min: 0, Max: 300})
	cl.Subscribe(ctlJob, 1, 0, true)
	sink := cl.AddJob(das, c0, "sink", 1, JobFunc(func(ctx *Context) {
		if m, ok := ctx.Latest(2); ok {
			ctx.Actuate("out", m.Float())
		}
	}))
	cl.Subscribe(sink, 2, 0, true)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.RunRounds(context.Background(), 10)
	if last, _ := cl.Env.LastActuation("out"); last.Value != 30 {
		t.Fatalf("healthy output = %v, want 30", last.Value)
	}
	// Source starts emitting implausible values: control holds 30.
	src.OutFault = func(ch vnet.ChannelID, p []byte, now sim.Time) ([]byte, bool) {
		return vnet.FloatPayload(999), true
	}
	cl.RunRounds(context.Background(), 10)
	if last, _ := cl.Env.LastActuation("out"); last.Value != 30 {
		t.Errorf("held output = %v, want 30", last.Value)
	}
	if ctl.RejectedInputs == 0 {
		t.Error("no inputs rejected")
	}
}
