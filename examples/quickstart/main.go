// Quickstart: assemble a minimal DECOS cluster through the run engine,
// inject a connector fault, and let the integrated diagnostic
// architecture classify it and derive the maintenance action. A second
// engine swaps the classification stage for the OBD baseline to show the
// same pipeline running a different diagnoser.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/sim"
	"decos/internal/vnet"
)

const chTemp vnet.ChannelID = 1

// fretting is the fault both engines run: a connector on the sensor node
// losing 30 % of its frames at arbitrary instants from 100 ms on.
var fretting = pack.FaultSpec{Kind: "connector-tx", Component: 0, Rate: 0.3, AtMS: 100}

// buildClimate populates the topology: a temperature sensor publishing
// on a time-triggered virtual network, a consumer displaying it.
func buildClimate(cl *component.Cluster) {
	c0 := cl.AddComponent(0, "sensor-node", 0, 0)
	c1 := cl.AddComponent(1, "control-node", 1, 0)
	cl.AddComponent(2, "diag-node", 2, 0)

	cl.Env.DefineSine("temperature", 15, 500*sim.Millisecond, 20)

	das := cl.AddDAS("climate", component.NonSafetyCritical)
	net := cl.AddNetwork(das, "climate.tt", vnet.TimeTriggered)
	net.AddEndpoint(0, 32, 0)

	sensor := cl.AddJob(das, c0, "temp-sensor", 0,
		&component.SensorJob{Signal: "temperature", Out: chTemp})
	display := cl.AddJob(das, c1, "display", 0, component.JobFunc(func(ctx *component.Context) {
		if m, ok := ctx.Latest(chTemp); ok {
			ctx.Actuate("display", m.Float())
		}
	}))
	cl.Produce(sensor, net, component.ChannelSpec{
		Channel: chTemp, Name: "temperature", Min: -40, Max: 85,
		MaxAgeRounds: 3, StuckRounds: 50, Sensor: true,
	})
	cl.Subscribe(display, chTemp, 0, true)
}

func main() {
	// 1. One engine configuration replaces the hand-rolled wiring: the
	//    time-triggered core (three components, 250 µs slots, 128-byte
	//    frames), the topology hook, the diagnostic DAS on component 2,
	//    and a fault manifest that injects the fretting connector.
	var act *faults.Activation
	eng := engine.MustNew(
		engine.WithTopology(3, 250*sim.Microsecond, 128),
		engine.WithSeed(42),
		engine.WithBuild(buildClimate),
		engine.WithDiagnosis(2, diagnosis.Options{}),
		engine.WithFaults(func(inj *faults.Injector) {
			act = fretting.Apply(inj, fretting.At())
		}),
	)
	fmt.Println("injected:", act)

	// 2. Run three simulated seconds and read the verdict.
	eng.Cluster.RunRounds(context.Background(), 4000)

	v, ok := eng.Diag.VerdictOf(core.HardwareFRU(0))
	if !ok {
		fmt.Println("no verdict — the fault went undetected")
		return
	}
	fmt.Printf("diagnosed: %s (pattern %q, confidence %.2f)\n", v.Class, v.Pattern, v.Confidence)
	fmt.Printf("maintenance action: %s\n", v.Action)
	fmt.Printf("trust level of %v: %.3f\n", v.FRU, float64(eng.Diag.TrustOf(core.HardwareFRU(0))))
	fmt.Printf("ground truth was: %s → correct=%v\n", act.Class, act.Class.Matches(v.Class))

	// 3. Diagnoser selection: the same engine configuration with the OBD
	//    baseline as the pipeline's classification stage. The collector
	//    and adviser stages are identical — only the classifier differs —
	//    and the crude DTC rule misses the short intermittent entirely.
	obdEng := engine.MustNew(
		engine.WithTopology(3, 250*sim.Microsecond, 128),
		engine.WithSeed(42),
		engine.WithBuild(buildClimate),
		engine.WithDiagnosis(2, diagnosis.Options{}),
		engine.WithOBDClassifier(),
		engine.WithFaults(func(inj *faults.Injector) {
			fretting.Apply(inj, fretting.At())
		}),
	)
	obdEng.Cluster.RunRounds(context.Background(), 4000)
	fmt.Printf("\nsame fault through the %s classifier: ", obdEng.Diag.Assessor.Classifier().Name())
	if ov, ok := obdEng.Diag.VerdictOf(core.HardwareFRU(0)); ok {
		fmt.Printf("%s → %s\n", ov.Class, ov.Action)
	} else {
		fmt.Println("no verdict — the intermittent never crosses the 500 ms DTC threshold")
	}
}
