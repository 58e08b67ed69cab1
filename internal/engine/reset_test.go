package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// resetRounds is the length of one vehicle in the reset tests: long
// enough for every fault kind to activate and draw verdicts.
const resetRounds = 600

// resetPlan is one vehicle's injection of kind (nil for a fault-free
// vehicle), activating at a fifth of the vehicle's span.
func resetPlan(kind scenario.FaultKind, faulty bool) []scenario.InjectPlan {
	if !faulty {
		return nil
	}
	horizon := sim.Time(resetRounds * 1000) // 4 slots of 250 µs per round
	return []scenario.InjectPlan{{Kind: kind, At: horizon / 5, Horizon: horizon}}
}

// checkpointOf encodes the system's engine state.
func checkpointOf(t *testing.T, sys *scenario.System) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sys.Engine.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResetMatchesFreshEngine is the reset oracle: for every fault kind
// and the fault-free case, under each classifier, traced and untraced, a
// worker engine that already ran a different vehicle (another seed and
// fault) and is then reset must checkpoint exactly like a freshly built
// engine for the same seed and faults, and must record the same binary
// trace and reach the same final checkpoint when both run the vehicle.
// The previous vehicle stops a third of the way in, so any event it left
// pending would fire inside the checked run.
func TestResetMatchesFreshEngine(t *testing.T) {
	kinds := scenario.AllKinds()
	for _, cls := range []string{pack.ClassifierDECOS, pack.ClassifierOBD, pack.ClassifierBayes} {
		for _, traced := range []bool{false, true} {
			for i := 0; i <= len(kinds); i++ {
				faulty := i < len(kinds)
				kind := scenario.FaultKind(i % len(kinds))
				name := "fault-free"
				if faulty {
					name = kind.String()
				}
				t.Run(fmt.Sprintf("%s/traced=%t/%s", cls, traced, name), func(t *testing.T) {
					seed := 20050404 + uint64(i)*7919
					// The previous vehicle: another seed, another fault kind.
					prev := resetPlan(scenario.FaultKind((i+3)%len(kinds)), true)
					var workerBuf, freshBuf bytes.Buffer
					workerOpts := pack.ClassifierOptions(cls)
					freshOpts := pack.ClassifierOptions(cls)
					if traced {
						workerOpts = append(workerOpts, engine.WithSink(trace.NewBinarySink(&workerBuf), trace.Options{TrustEveryEpochs: 5, Vehicle: 1}))
						freshOpts = append(freshOpts, engine.WithSink(trace.NewBinarySink(&freshBuf), trace.Options{TrustEveryEpochs: 5, Vehicle: 2}))
					}
					worker := scenario.Fig10Faulted(seed^0xfeed, diagnosis.Options{}, prev, workerOpts...)
					worker.Run(resetRounds / 3)

					plan := resetPlan(kind, faulty)
					var extra []engine.Option
					if traced {
						workerBuf.Reset()
						extra = append(extra, engine.WithSink(trace.NewBinarySink(&workerBuf), trace.Options{TrustEveryEpochs: 5, Vehicle: 2}))
					}
					if err := worker.Reset(seed, plan, extra...); err != nil {
						t.Fatal(err)
					}
					fresh := scenario.Fig10Faulted(seed, diagnosis.Options{}, plan, freshOpts...)
					if w, f := checkpointOf(t, worker), checkpointOf(t, fresh); !bytes.Equal(w, f) {
						t.Fatalf("reset engine checkpoints %d bytes, fresh engine %d: they differ", len(w), len(f))
					}
					worker.Run(resetRounds)
					fresh.Run(resetRounds)
					if !bytes.Equal(workerBuf.Bytes(), freshBuf.Bytes()) {
						t.Errorf("reset engine traced %d bytes, fresh engine %d: they differ", workerBuf.Len(), freshBuf.Len())
					}
					if w, f := checkpointOf(t, worker), checkpointOf(t, fresh); !bytes.Equal(w, f) {
						t.Errorf("after the run the reset engine checkpoints %d bytes, the fresh engine %d: they differ", len(w), len(f))
					}
				})
			}
		}
	}
}

// TestResetKeepsEarlierResults: what a caller took out of one vehicle —
// a trust trajectory, the injector ledger, the emitted verdicts — reads
// the same after the engine is reset and runs the next vehicle.
func TestResetKeepsEarlierResults(t *testing.T) {
	sys := scenario.Fig10Faulted(20050404, diagnosis.Options{}, resetPlan(scenario.KindPermanent, true))
	sys.Run(resetRounds)
	var trust [][]diagnosis.TrustPoint
	for f := 0; f < sys.Diag.Reg.Len(); f++ {
		trust = append(trust, sys.Diag.Assessor.TrustHistory(diagnosis.FRUIndex(f)))
	}
	ledger := sys.Injector.Ledger()
	emitted := sys.Diag.Assessor.Emitted()
	if len(trust[0]) == 0 || len(ledger) == 0 || len(emitted) == 0 {
		t.Fatalf("first vehicle left %d trust points, %d activations, %d verdicts; want some of each",
			len(trust[0]), len(ledger), len(emitted))
	}
	render := func() string { return fmt.Sprint(trust, ledger, emitted) }
	before := render()

	if err := sys.Reset(7, resetPlan(scenario.KindEMI, true)); err != nil {
		t.Fatal(err)
	}
	sys.Run(resetRounds)
	if after := render(); after != before {
		t.Errorf("results of the first vehicle changed while the next one ran:\nbefore: %s\nafter:  %s", before, after)
	}
	if len(sys.Injector.Ledger()) == 0 || len(sys.Diag.Assessor.TrustHistory(0)) == 0 {
		t.Error("the second vehicle recorded no activation or trust point")
	}
}

// TestResetRejectsBuildOptions: Reset changes only what varies between
// runs; topology, attachments and recording presence are the build's.
func TestResetRejectsBuildOptions(t *testing.T) {
	untraced := scenario.Fig10(1, diagnosis.Options{})
	traced := scenario.Fig10With(1, diagnosis.Options{}, engine.WithSink(trace.NewBinarySink(new(bytes.Buffer)), trace.Options{}))
	for name, c := range map[string]struct {
		sys *scenario.System
		opt engine.Option
	}{
		"topology":       {untraced, engine.WithTopology(4, 250, 256)},
		"obd":            {untraced, engine.WithOBD()},
		"classifier":     {untraced, engine.WithOBDClassifier()},
		"attach sink":    {untraced, engine.WithSink(trace.NewBinarySink(new(bytes.Buffer)), trace.Options{})},
		"detach sink":    {traced, engine.WithSink(trace.Nop(), trace.Options{})},
		"checkpointing":  {untraced, engine.WithCheckpointSink(func(int64, []byte) error { return nil }, 10)},
		"restore stream": {untraced, engine.WithRestore(nil)},
	} {
		if err := c.sys.Engine.Reset(c.opt); err == nil {
			t.Errorf("%s: Reset accepted the option", name)
		}
	}
	if err := traced.Engine.Reset(engine.WithSeed(2), engine.WithSink(trace.NewBinarySink(new(bytes.Buffer)), trace.Options{Vehicle: 3})); err != nil {
		t.Errorf("seed and sink: %v", err)
	}
}
