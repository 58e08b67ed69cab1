// Package scenario provides canonical cluster configurations and the
// fault-injection campaign driver used by the experiments: most notably the
// system of the paper's Fig. 10 — three application DASs (two non-safety-
// critical, one safety-critical TMR triple) spread over four components —
// with both the DECOS diagnostic architecture and the OBD baseline
// attached.
//
// Fig10 is the one constructor of that system, and Grid the one
// constructor of the scalability grid. Both return the built
// *engine.Engine, which is the run's one handle: its Cluster runs it
// (component.Cluster.RunRounds), its Diag and OBD are the two
// diagnosers, and its Injector's ledger is the ground truth. Every fault
// of either is a plan entry: an explicit pack.FaultSpec, or a campaign
// FaultKind that draws one (FaultKind.Spec). The engine's fault manifest
// injects each through the pack applier (pack.FaultSpec.Apply), so a
// checkpoint restore re-executes every fault of the run. This package
// calls no injector primitive itself.
package scenario

import (
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/sim"
	"decos/internal/tt"
)

// Channel plan of the Fig. 10 system. The wiring itself is the pack
// package's generated Fig. 10 graph (pack.Topology.Graph); these aliases
// keep the scenario API stable.
const (
	ChSpeed = pack.ChSpeed // DAS A: wheel speed (A1 → A2)
	ChCmd   = pack.ChCmd   // DAS A: brake command (A2 → A3)
	ChLoad  = pack.ChLoad  // DAS C: event traffic (C1 → C2)
	ChS1    = pack.ChS1    // DAS S: replica 1 pressure
	ChS2    = pack.ChS2    // DAS S: replica 2 pressure
	ChS3    = pack.ChS3    // DAS S: replica 3 pressure
	ChVoted = pack.ChVoted // DAS S: voted pressure
)

// DiagNode hosts the diagnostic DAS's analysis stage.
const DiagNode tt.NodeID = 3

// InjectPlan is one planned injection, activating at At. Fault, when
// set, is injected as given; its AtMS is not read, so µs instants
// survive. Otherwise Kind draws the fault at manifest time
// (FaultKind.Spec, from the "campaign" stream), so the same plan on the
// same seed always hits the same FRU.
type InjectPlan struct {
	Kind  FaultKind
	At    sim.Time
	Fault *pack.FaultSpec
}

// Fig10 builds the canonical system with the given seed, diagnostic
// options and fault plan. The cluster is started and ready to run. The
// plan's injections ride the engine's fault manifest, which
// engine.WithRestore re-executes to reconstruct a run. Fig10 panics on
// any build error; a checkpoint from outside the process is restored
// into the built system with Engine.Reset, which returns a corrupt stream
// as an error. The activations land in the injector's ledger
// (Injector.Ledger) in plan order; an empty plan is a fault-free run. extra composes engine options onto the
// canonical configuration — trace sinks, checkpoint sinks, classifier
// selection (engine.WithOBDClassifier and friends).
func Fig10(seed uint64, opts diagnosis.Options, plan []InjectPlan, extra ...engine.Option) *engine.Engine {
	return engine.MustNew(fig10Options(seed, opts, plan, extra)...)
}

// PlanFaults is the fault manifest injecting plan: the pack applier
// injects each entry's explicit fault, or the one its kind draws from
// the "campaign" stream. Fig10 and Grid build with it; with
// engine.WithSeed it readies a built system for another vehicle
// (engine.Engine.Reset).
func PlanFaults(plan []InjectPlan) engine.Option {
	return engine.WithFaults(func(inj *faults.Injector) {
		for _, p := range plan {
			if p.Fault != nil {
				p.Fault.Apply(inj, p.At)
				continue
			}
			f := p.Kind.Spec(inj.Cluster().Streams.Stream("campaign"), -1)
			f.Apply(inj, p.At)
		}
	})
}

// fig10Topology is the resolved Fig. 10 topology every system builds
// from; it is read-only.
var fig10Topology = pack.Fig10Topology()

// RoundsAt returns the instant n TDMA rounds into a Fig. 10 run: where a
// plan entry goes that should strike a run n rounds in.
func RoundsAt(n int64) sim.Time {
	return sim.Time(n * fig10Topology.RoundDuration().Micros())
}

// fig10Options is the Fig. 10 system's engine configuration: the
// topology's canonical prefix, the plan's fault manifest, then extra.
func fig10Options(seed uint64, opts diagnosis.Options, plan []InjectPlan, extra []engine.Option) []engine.Option {
	return append(append(fig10Topology.Options(seed, opts), PlanFaults(plan)), extra...)
}
