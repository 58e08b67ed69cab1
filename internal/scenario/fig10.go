// Package scenario provides canonical cluster configurations and the
// fault-injection campaign driver used by the experiments: most notably the
// system of the paper's Fig. 10 — three application DASs (two non-safety-
// critical, one safety-critical TMR triple) spread over four components —
// with both the DECOS diagnostic architecture and the OBD baseline
// attached.
package scenario

import (
	"context"

	"decos/internal/baseline"
	"decos/internal/component"
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

// System is one fully assembled Fig. 10 cluster with diagnostics, the OBD
// baseline and a fault injector, built on the shared run engine.
type System struct {
	Engine   *engine.Engine
	Cluster  *component.Cluster
	Diag     *diagnosis.Diagnostics
	OBD      *baseline.OBD
	Injector *faults.Injector
	Voter    *component.VoterJob

	// Handy job handles.
	Sensor, Control, Actuator, Bursty, Sink *component.Instance
	Replicas                                [3]*component.Instance
	VoterJob                                *component.Instance
}

// DiagNode hosts the diagnostic DAS's analysis stage.
const DiagNode tt.NodeID = 3

// Fig10 builds the canonical system with the given seed and diagnostic
// options. The cluster is started and ready to run.
func Fig10(seed uint64, opts diagnosis.Options) *System {
	return fig10Engine(seed, opts, nil)
}

// Fig10With is Fig10 with extra engine options composed onto the
// canonical configuration — trace sinks, fault manifests, classifier
// selection (engine.WithOBDClassifier and friends).
func Fig10With(seed uint64, opts diagnosis.Options, extra ...engine.Option) *System {
	return fig10Engine(seed, opts, extra)
}

// InjectPlan is one planned campaign injection: the randomized targeting
// happens at manifest time (drawing from the "campaign" stream), so the
// same plan on the same seed always hits the same FRU.
type InjectPlan struct {
	Kind FaultKind
	At   sim.Time
	// Horizon bounds open activation windows (the vehicle's total span).
	Horizon sim.Time
}

// Fig10Faulted is Fig10With with the injections routed through the
// engine's fault manifest instead of applied after build. This is the
// checkpoint-compatible form: engine.WithRestore reconstructs a run by
// re-executing the manifest, so injections living outside it would be
// invisible to a restore. The activations land in the injector's ledger
// in plan order.
func Fig10Faulted(seed uint64, opts diagnosis.Options, plan []InjectPlan, extra ...engine.Option) *System {
	sys := &System{}
	return sys.assemble(seed, opts, append([]engine.Option{sys.manifest(plan)}, extra...))
}

// manifest is the fault manifest injecting plan into the system.
func (sys *System) manifest(plan []InjectPlan) engine.Option {
	return engine.WithFaults(func(inj *faults.Injector) {
		for _, p := range plan {
			sys.InjectWith(inj, p.Kind, p.At, p.Horizon)
		}
	})
}

// Reset readies the system for another vehicle without rebuilding it
// (engine.Engine.Reset): afterwards it is what Fig10Faulted builds for
// seed and plan, with the same diagnostic options and classifier. extra
// may re-point the trace sink (engine.WithSink).
func (sys *System) Reset(seed uint64, plan []InjectPlan, extra ...engine.Option) error {
	return sys.Engine.Reset(append([]engine.Option{engine.WithSeed(seed), sys.manifest(plan)}, extra...)...)
}

// Fig10Restored rebuilds a Fig. 10 system from an engine checkpoint:
// Fig10Faulted's configuration plus engine.WithRestore, through the
// error-returning constructor. Checkpoint bytes are external input
// (files, uplinks), so a corrupt or mismatched stream must surface as an
// error, not a panic. The bytes are read in place and may be reused once
// Fig10Restored returns.
func Fig10Restored(data []byte, seed uint64, opts diagnosis.Options, plan []InjectPlan, extra ...engine.Option) (*System, error) {
	sys := &System{}
	return sys.assembleE(seed, opts, append([]engine.Option{sys.manifest(plan), engine.WithRestore(data)}, extra...))
}

// fig10Engine assembles the Fig. 10 system through the run engine; extra
// options (a trace sink, a fault manifest) compose onto the canonical
// configuration.
func fig10Engine(seed uint64, opts diagnosis.Options, extra []engine.Option) *System {
	return (&System{}).assemble(seed, opts, extra)
}

func (sys *System) assemble(seed uint64, opts diagnosis.Options, extra []engine.Option) *System {
	s, err := sys.assembleE(seed, opts, extra)
	if err != nil {
		panic(err)
	}
	return s
}

// fig10Topology is the resolved Fig. 10 topology every system builds
// from; it is read-only.
var fig10Topology = pack.Fig10Topology()

func (sys *System) assembleE(seed uint64, opts diagnosis.Options, extra []engine.Option) (*System, error) {
	eopts := append(fig10Topology.Options(seed, opts, sys.bind), extra...)
	eng, err := engine.New(eopts...)
	if err != nil {
		return nil, err
	}
	sys.Engine = eng
	sys.Cluster = eng.Cluster
	sys.Diag = eng.Diag
	sys.OBD = eng.OBD
	sys.Injector = eng.Injector
	return sys, nil
}

// bind resolves the System's job handles from the built Fig. 10
// cluster.
func (s *System) bind(cl *component.Cluster) {
	dasA, dasC, dasS := cl.DAS("A"), cl.DAS("C"), cl.DAS("S")
	s.Sensor = dasA.JobNamed("A1")
	s.Control = dasA.JobNamed("A2")
	s.Actuator = dasA.JobNamed("A3")
	s.Bursty = dasC.JobNamed("C1")
	s.Sink = dasC.JobNamed("C2")
	for i := 0; i < 3; i++ {
		s.Replicas[i] = dasS.JobNamed("S" + string(rune('1'+i)))
	}
	s.VoterJob = dasS.JobNamed("V")
	s.Voter = s.VoterJob.Impl.(*component.VoterJob)
}

// Run advances the system by n TDMA rounds.
func (s *System) Run(n int64) { s.Cluster.RunRounds(n) }

// RunCtx advances the system by n TDMA rounds under the context; it
// returns ctx.Err() when cancelled mid-run, nil on completion.
func (s *System) RunCtx(ctx context.Context, n int64) error {
	return s.Cluster.RunRoundsCtx(ctx, n)
}
