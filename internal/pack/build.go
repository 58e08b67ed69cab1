package pack

import (
	"fmt"
	"slices"
	"strings"

	"decos/internal/bayes"
	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Engine assembles and starts the pack's cluster: topology, seed,
// clocks, the graph's build, diagnosis, OBD, the manifest's classifier
// selection and — when the pack declares faults or environment profiles
// — a fault-manifest hook, so checkpoint restores of pack runs
// reconstruct every injection. Extra options (classifier overrides,
// trace sinks, checkpoint sinks) compose on top. The option sequence is
// the Go constructors' exactly, so a pack run is byte-identical to the
// equivalent Go-built run under the same seed.
func (m *Manifest) Engine(extra ...engine.Option) (*engine.Engine, error) {
	opts := m.Topology.Options(m.Seed, diagnosis.Options{})
	opts = append(opts, ClassifierOptions(m.Classifier)...)
	if len(m.Faults) > 0 || len(m.Environment) > 0 {
		opts = append(opts, engine.WithFaults(m.ApplyFaults))
	}
	return engine.New(append(opts, extra...)...)
}

// CheckClassifier refuses a classifier name that selects no stage: the
// valid names are "" (the DECOS default) and Classifiers.
func CheckClassifier(name string) error {
	if name != "" && !slices.Contains(Classifiers, name) {
		return fmt.Errorf("unknown classifier %q (known: %s)", name, strings.Join(Classifiers, ", "))
	}
	return nil
}

// ClassifierOptions maps a classifier name onto the engine options
// selecting that classification stage. The empty name and "decos" are
// the default pipeline (no option at all — the engine wiring stays
// byte-identical to pre-selector builds); "bayes" instances a fresh
// Bayesian stage, so every engine gets its own belief state. Any other
// name panics: callers check it with CheckClassifier where it enters.
func ClassifierOptions(name string) []engine.Option {
	switch name {
	case "", ClassifierDECOS:
		return nil
	case ClassifierOBD:
		return []engine.Option{engine.WithOBDClassifier()}
	case ClassifierBayes:
		return []engine.Option{engine.WithClassifier(bayes.New())}
	}
	panic(fmt.Sprintf("pack: %v", CheckClassifier(name)))
}

// Options compiles a resolved topology into the canonical engine option
// prefix: schedule geometry, seed, clock ensemble, the build of the
// topology's graph (buildCustom over Graph), diagnosis attachment and
// the OBD baseline. This is the single composition point both the
// manifest loader and the Go constructors go through.
func (t *Topology) Options(seed uint64, diagOpts diagnosis.Options) []engine.Option {
	g := t.Graph()
	return []engine.Option{
		engine.WithTopology(t.Nodes, t.SlotLen(), t.SlotBytes),
		engine.WithSeed(seed),
		// ±50 ppm drift, no jitter, Π = 20 µs, one faulty clock tolerated.
		engine.WithClocks(50, 0, 20, 1),
		engine.WithBuild(func(cl *component.Cluster) { buildCustom(cl, g) }),
		engine.WithDiagnosis(tt.NodeID(t.DiagNode), diagOpts),
		engine.WithOBD(),
	}
}

// Fig10Topology returns the resolved topology of the paper's Fig. 10
// system — what a manifest with kind "fig10" resolves to after
// validation.
func Fig10Topology() Topology {
	return Topology{Kind: "fig10", Nodes: 4, SlotLenUS: 250, SlotBytes: 256, DiagNode: 3}
}

// GridTopology returns the resolved n-component chain topology — what a
// manifest with kind "grid" resolves to after validation.
func GridTopology(n int) Topology {
	return Topology{Kind: "grid", Nodes: n, SlotLenUS: 250, SlotBytes: 160, DiagNode: n - 1}
}

// Graph returns the topology's FRU graph as a custom topology: the
// components, signals and DASs buildCustom wires and the validator
// checks. Only those fields of the result are meaningful; the schedule
// stays t's. For kind custom the graph is t itself, for grid it is
// generated from Nodes, and for fig10 it is one shared value. Treat the
// result as read-only.
func (t *Topology) Graph() *Topology {
	switch t.Kind {
	case "fig10":
		return fig10Graph
	case "grid":
		return gridGraph(t.Nodes)
	}
	return t
}

// Channel plan of the Fig. 10 system (scenario re-exports it).
const (
	ChSpeed = 1  // DAS A: wheel speed (A1 → A2)
	ChCmd   = 2  // DAS A: brake command (A2 → A3)
	ChLoad  = 10 // DAS C: event traffic (C1 → C2)
	ChS1    = 21 // DAS S: replica 1 pressure
	ChS2    = 22 // DAS S: replica 2 pressure
	ChS3    = 23 // DAS S: replica 3 pressure
	ChVoted = 24 // DAS S: voted pressure
)

// fig10Graph is the paper's Fig. 10 system: three application DASs (two
// non-safety-critical, one safety-critical TMR triple voted on a fourth
// component) over four components.
var fig10Graph = &Topology{
	Kind: "custom",
	Components: []ComponentSpec{
		{0, "front-left", 0, 0}, {1, "front-right", 1, 0}, {2, "rear-left", 5, 0}, {3, "rear-right", 6, 0},
	},
	Signals: []SignalSpec{{"wheel.speed", 30, 200, 50}, {"brake.pressure", 20, 300, 50}},
	DASs: []DASSpec{
		// DAS A: wheel-speed pipeline A1 → A2 → A3.
		{Name: "A", Networks: []NetworkSpec{{"A.tt", "tt", []EndpointSpec{{0, 40, 0}, {1, 40, 0}}}}, Jobs: []JobSpec{
			{Name: "A1", Component: 0, Type: "sensor", Signal: "wheel.speed", PhysMin: -10, PhysMax: 110, FrozenWindow: 20, Out: ChSpeed,
				Produce: []ProduceSpec{{"A.tt", ChSpeed, "wheel.speed", 0, 100, 3, 20, true}}},
			{Name: "A2", Component: 1, Type: "control", In: ChSpeed, Gain: 2, InMax: 100, Out: ChCmd,
				Produce:   []ProduceSpec{{"A.tt", ChCmd, "brake.cmd", 0, 200, 3, 0, false}},
				Subscribe: []SubscribeSpec{{ChSpeed, 0, true}}},
			{Name: "A3", Component: 2, Type: "actuator", In: ChCmd, Actuator: "brake",
				Subscribe: []SubscribeSpec{{ChCmd, 4, false}}},
		}},
		// DAS C: event-triggered comfort traffic.
		{Name: "C", Networks: []NetworkSpec{{"C.et", "et", []EndpointSpec{{1, 60, 16}}}}, Jobs: []JobSpec{
			{Name: "C1", Component: 1, Partition: 1, Type: "bursty", Out: ChLoad, MeanPerRound: 2,
				Produce: []ProduceSpec{{"C.et", ChLoad, "load", -1e12, 1e12, 0, 0, false}}},
			{Name: "C2", Component: 2, Partition: 1, Type: "sink", In: ChLoad,
				Subscribe: []SubscribeSpec{{ChLoad, 8, false}}},
		}},
		// DAS S: TMR pressure sensing on three components (Fig. 10's S1,
		// S2, S3), voted on a fourth.
		{Name: "S", Critical: true, Networks: []NetworkSpec{{"S.tt", "tt", []EndpointSpec{{0, 20, 0}, {2, 20, 0}, {3, 20, 0}, {1, 20, 0}}}}, Jobs: []JobSpec{
			fig10Replica("S1", 0, ChS1), fig10Replica("S2", 2, ChS2), fig10Replica("S3", 3, ChS3),
			{Name: "V", Component: 1, Partition: 2, Type: "voter", Ins: []int{ChS1, ChS2, ChS3}, Out: ChVoted, Tolerance: 1,
				Produce:   []ProduceSpec{{"S.tt", ChVoted, "voted", 0, 100, 3, 0, false}},
				Subscribe: []SubscribeSpec{{ChS1, 0, true}, {ChS2, 0, true}, {ChS3, 0, true}}},
		}},
	},
}

// fig10Replica is one of DAS S's pressure-sensing replicas.
func fig10Replica(name string, comp, ch int) JobSpec {
	return JobSpec{Name: name, Component: comp, Partition: 2, Type: "sensor", Signal: "brake.pressure",
		PhysMin: -10, PhysMax: 110, FrozenWindow: 20, Out: ch,
		Produce: []ProduceSpec{{"S.tt", ch, "pressure", 0, 100, 3, 20, true}}}
}

// gridGraph is the n-component chain: one sensor → observer DAS per
// adjacent pair, channel i+1 carrying the i-th sensor's signal.
func gridGraph(n int) *Topology {
	g := &Topology{Kind: "custom", Components: make([]ComponentSpec, n),
		Signals: []SignalSpec{{"signal", 30, 200, 50}}, DASs: make([]DASSpec, n-1)}
	for i := range g.Components {
		g.Components[i] = ComponentSpec{i, fmt.Sprintf("c%d", i), float64(i), 0}
	}
	for i := range g.DASs {
		das, ch := fmt.Sprintf("D%d", i), i+1
		g.DASs[i] = DASSpec{Name: das, Networks: []NetworkSpec{{das + ".tt", "tt", []EndpointSpec{{i, 20, 0}}}}, Jobs: []JobSpec{
			{Name: "sense", Component: i, Type: "sensor", Signal: "signal", PhysMin: -10, PhysMax: 110, FrozenWindow: 20, Out: ch,
				Produce: []ProduceSpec{{das + ".tt", ch, "signal", 0, 100, 3, 20, true}}},
			{Name: "consume", Component: i + 1, Partition: 1, Type: "observer", Watch: ch,
				Subscribe: []SubscribeSpec{{ch, 0, true}}},
		}}
	}
	return g
}

// buildCustom populates a declarative FRU graph: components in order,
// then signals, then DASs — per DAS its networks with endpoints, then per
// job AddJob followed by that job's produces and subscribes. The order
// of channel declarations and subscriptions is what the virtual network
// fabric's determinism depends on; AddJob does not touch the fabric.
// Validation guarantees dense component ids and known network names.
func buildCustom(cl *component.Cluster, g *Topology) {
	for _, cs := range g.Components {
		cl.AddComponent(tt.NodeID(cs.ID), cs.Name, cs.X, cs.Y)
	}
	for _, sg := range g.Signals {
		cl.Env.DefineSine(sg.Name, sg.Amplitude, sim.Duration(msToTime(sg.PeriodMS)), sg.Offset)
	}
	for i := range g.DASs {
		ds := &g.DASs[i]
		crit := component.NonSafetyCritical
		if ds.Critical {
			crit = component.SafetyCritical
		}
		das := cl.AddDAS(ds.Name, crit)
		for _, ns := range ds.Networks {
			kind := vnet.TimeTriggered
			if ns.Kind == "et" {
				kind = vnet.EventTriggered
			}
			net := cl.AddNetwork(das, ns.Name, kind)
			for _, ep := range ns.Endpoints {
				net.AddEndpoint(tt.NodeID(ep.Node), ep.AllocBytes, ep.QueueCap)
			}
		}
		for k := range ds.Jobs {
			js := &ds.Jobs[k]
			j := cl.AddJob(das, cl.Component(tt.NodeID(js.Component)), js.Name, js.Partition, buildJobImpl(js))
			for _, ps := range js.Produce {
				net := das.Networks[slices.IndexFunc(ds.Networks, func(ns NetworkSpec) bool { return ns.Name == ps.Network })]
				cl.Produce(j, net, component.ChannelSpec{
					Channel:      vnet.ChannelID(ps.Channel),
					Name:         ps.Name,
					Min:          ps.Min,
					Max:          ps.Max,
					MaxAgeRounds: int64(ps.MaxAgeRounds),
					StuckRounds:  int64(ps.StuckRounds),
					Sensor:       ps.Sensor,
				})
			}
			for _, ss := range js.Subscribe {
				cl.Subscribe(j, vnet.ChannelID(ss.Channel), ss.Capacity, ss.Overwrite)
			}
		}
	}
}

// buildJobImpl instantiates the job implementation a JobSpec names.
func buildJobImpl(js *JobSpec) component.Job {
	switch js.Type {
	case "sensor":
		return &component.SensorJob{
			Signal: js.Signal, Out: vnet.ChannelID(js.Out),
			PhysMin: js.PhysMin, PhysMax: js.PhysMax, FrozenWindow: js.FrozenWindow,
		}
	case "control":
		return &component.ControlJob{
			In: vnet.ChannelID(js.In), Out: vnet.ChannelID(js.Out),
			Gain: js.Gain, InMin: js.InMin, InMax: js.InMax,
		}
	case "actuator":
		return &component.ActuatorJob{In: vnet.ChannelID(js.In), Actuator: js.Actuator}
	case "bursty":
		return &component.BurstyJob{Out: vnet.ChannelID(js.Out), MeanPerRound: js.MeanPerRound}
	case "sink":
		return &component.SinkJob{In: vnet.ChannelID(js.In)}
	case "voter":
		var ins [3]vnet.ChannelID
		for i := 0; i < 3 && i < len(js.Ins); i++ {
			ins[i] = vnet.ChannelID(js.Ins[i])
		}
		return &component.VoterJob{Ins: ins, Out: vnet.ChannelID(js.Out), Tolerance: js.Tolerance}
	case "observer":
		ch := vnet.ChannelID(js.Watch)
		return component.JobFunc(func(ctx *component.Context) {
			ctx.Latest(ch)
		})
	}
	panic(fmt.Sprintf("pack: no implementation for job type %q (validate first)", js.Type))
}
