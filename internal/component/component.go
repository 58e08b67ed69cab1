package component

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Component is one DECOS node computer: a system-on-a-chip hosting the
// communication controller (realized by the tt/vnet layers) and a set of
// application partitions. It is the fault-containment region and field-
// replaceable unit for hardware faults.
type Component struct {
	ID   tt.NodeID
	Name string
	// X, Y locate the component in the vehicle/airframe; spatial proximity
	// drives the footprint of massive transient disturbances (EMI).
	X, Y float64

	Jobs []*Instance

	cluster *Cluster
}

// DistanceTo returns the Euclidean distance to another component.
func (c *Component) DistanceTo(o *Component) float64 {
	dx, dy := c.X-o.X, c.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// controller adapts a Component to the tt.Controller interface. It is a
// separate type so the tt layer cannot reach application state.
type controller struct{ c *Component }

func (ct controller) BuildFrame(round int64, slot int) []byte {
	return ct.c.cluster.Fabric.BuildPayload(ct.c.ID)
}

func (ct controller) OnRoundEnd(round int64) {
	c := ct.c
	now := c.cluster.Sched.Now()
	for _, j := range c.Jobs {
		if j.Halted {
			continue
		}
		// The execution context is allocated once per job and refreshed
		// per round: context construction (and the stream lookup behind
		// it) is on the per-round hot path. A reset cluster re-opens the
		// stream on the job's first step, as a fresh one opens it.
		if j.ctx == nil {
			j.ctx = &Context{Job: j, env: c.cluster.Env}
		}
		if j.ctx.Rand == nil {
			j.ctx.Rand = c.cluster.Streams.Stream(j.stream)
		}
		j.ctx.Now = now
		j.ctx.Round = round
		j.Impl.Step(j.ctx)
		j.Steps++
	}
}

// Cluster assembles a complete DECOS cluster: core network, clock ensemble,
// virtual-network fabric, components, DASs and jobs, plus the shared
// environment. It is the top-level build API of the simulator.
type Cluster struct {
	Sched   *sim.Scheduler
	Streams *sim.Streams
	Cfg     tt.Config
	Bus     *tt.Bus
	Fabric  *vnet.Fabric
	Env     *Environment

	components map[tt.NodeID]*Component
	dass       map[string]*DAS
	specs      map[vnet.ChannelID]ChannelSpec

	sealed bool
}

// NewCluster creates an empty cluster over the given TDMA configuration,
// seeded deterministically.
func NewCluster(cfg tt.Config, seed uint64) *Cluster {
	sched := sim.NewScheduler()
	streams := sim.NewStreams(seed)
	cl := &Cluster{
		Sched:      sched,
		Streams:    streams,
		Cfg:        cfg,
		Bus:        tt.NewBus(cfg, sched),
		Fabric:     vnet.NewFabric(cfg, streams.Stream("fabric")),
		Env:        NewEnvironment(4096),
		components: make(map[tt.NodeID]*Component),
		dass:       make(map[string]*DAS),
		specs:      make(map[vnet.ChannelID]ChannelSpec),
	}
	cl.Bus.SetReception(cl.Fabric.ConsumeSlot)
	return cl
}

// AddComponent creates and attaches a component at the given node id and
// position.
func (cl *Cluster) AddComponent(id tt.NodeID, name string, x, y float64) *Component {
	if _, dup := cl.components[id]; dup {
		panic(fmt.Sprintf("component: duplicate node id %d", id))
	}
	c := &Component{ID: id, Name: name, X: x, Y: y, cluster: cl}
	cl.components[id] = c
	cl.Bus.Attach(id, controller{c})
	return c
}

// Component returns the component at node id, or nil.
func (cl *Cluster) Component(id tt.NodeID) *Component { return cl.components[id] }

// Components returns all components in node-id order.
func (cl *Cluster) Components() []*Component {
	out := make([]*Component, 0, len(cl.components))
	for _, c := range cl.components {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddDAS creates a distributed application subsystem.
func (cl *Cluster) AddDAS(name string, crit Criticality) *DAS {
	if _, dup := cl.dass[name]; dup {
		panic(fmt.Sprintf("component: duplicate DAS %q", name))
	}
	d := &DAS{Name: name, Criticality: crit}
	cl.dass[name] = d
	return d
}

// DAS returns the named DAS, or nil.
func (cl *Cluster) DAS(name string) *DAS { return cl.dass[name] }

// DASs returns all DASs in name order.
func (cl *Cluster) DASs() []*DAS {
	names := make([]string, 0, len(cl.dass))
	for n := range cl.dass {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*DAS, len(names))
	for i, n := range names {
		out[i] = cl.dass[n]
	}
	return out
}

// AddNetwork creates a virtual network owned by the DAS and registers it
// with the fabric.
func (cl *Cluster) AddNetwork(d *DAS, name string, kind vnet.Kind) *vnet.Network {
	n := vnet.NewNetwork(name, kind, d.Name)
	d.Networks = append(d.Networks, n)
	cl.Fabric.AddNetwork(n)
	return n
}

// AddJob deploys application code as a job of the DAS in a partition of the
// component.
func (cl *Cluster) AddJob(d *DAS, comp *Component, name string, partition int, impl Job) *Instance {
	j := &Instance{
		Name:      name,
		DAS:       d,
		Comp:      comp,
		Partition: partition,
		Impl:      impl,
	}
	j.stream = "job/" + j.String()
	d.Jobs = append(d.Jobs, j)
	comp.Jobs = append(comp.Jobs, j)
	sort.SliceStable(comp.Jobs, func(a, b int) bool {
		return comp.Jobs[a].Partition < comp.Jobs[b].Partition
	})
	return j
}

// Produce declares that job j publishes channel spec.Channel on network n,
// and registers the channel's LIF specification.
func (cl *Cluster) Produce(j *Instance, n *vnet.Network, spec ChannelSpec) {
	n.DeclareChannel(spec.Channel, j.Comp.ID)
	o := outPort{ch: spec.Channel, net: n}
	i, dup := slices.BinarySearchFunc(j.out, o.ch, func(o outPort, ch vnet.ChannelID) int { return cmp.Compare(o.ch, ch) })
	if dup {
		j.out[i] = o
	} else {
		j.out = slices.Insert(j.out, i, o)
	}
	cl.specs[spec.Channel] = spec
}

// Subscribe attaches job j to channel ch with the given receive-queue
// capacity (overwrite=true gives state-port semantics).
func (cl *Cluster) Subscribe(j *Instance, ch vnet.ChannelID, capacity int, overwrite bool) *vnet.InPort {
	p := cl.Fabric.Subscribe(j.Comp.ID, ch, capacity, overwrite)
	i, dup := slices.BinarySearchFunc(j.in, ch, func(p *vnet.InPort, ch vnet.ChannelID) int { return cmp.Compare(p.Channel, ch) })
	if dup {
		j.in[i] = p
	} else {
		j.in = slices.Insert(j.in, i, p)
	}
	return p
}

// Spec returns the LIF specification of a channel.
func (cl *Cluster) Spec(ch vnet.ChannelID) (ChannelSpec, bool) {
	s, ok := cl.specs[ch]
	return s, ok
}

// Specs returns all channel specifications keyed by channel.
func (cl *Cluster) Specs() map[vnet.ChannelID]ChannelSpec { return cl.specs }

// Producer resolves the producing job of a channel, or nil.
func (cl *Cluster) Producer(ch vnet.ChannelID) *Instance {
	for _, d := range cl.dass {
		for _, j := range d.Jobs {
			if j.outNet(ch) != nil {
				return j
			}
		}
	}
	return nil
}

// OnRound installs a callback invoked once per round after all components
// executed (used by the diagnostic DAS driver and tests). It fires even when
// components have failed.
func (cl *Cluster) OnRound(f func(round int64, now sim.Time)) {
	cl.Bus.OnRound(func(round int64) { f(round, cl.Sched.Now()) })
}

// Seal freezes the configuration, computes the frame layout and resolves
// the jobs' environment names to ids.
func (cl *Cluster) Seal() error {
	if err := cl.Fabric.Seal(); err != nil {
		return err
	}
	for _, c := range cl.Components() {
		for _, j := range c.Jobs {
			if b, ok := j.Impl.(envBinder); ok {
				b.bindEnv(cl.Env)
			}
		}
	}
	cl.sealed = true
	return nil
}

// Start seals (if needed) and schedules the first TDMA slot.
func (cl *Cluster) Start() error {
	if !cl.sealed {
		if err := cl.Seal(); err != nil {
			return err
		}
	}
	// The streams the build drew from are the ones Reset keeps open.
	cl.Streams.Keep()
	cl.Bus.Start()
	return nil
}

// Reset returns a started cluster to its state before Start, for a new
// run under seed, keeping the topology and all storage: the scheduler is
// emptied and its clock zeroed; the streams open at Start restart under
// seed and every other stream is closed; the fabric, the bus, every job
// and the environment are reset (see their Reset methods and Resetter).
// The clock ensemble is the caller's: its drifts come from the "clocks"
// stream (clock.Cluster.Reset). Start the cluster again to run it.
func (cl *Cluster) Reset(seed uint64) {
	cl.Sched.Reset()
	cl.Streams.Reset(seed)
	cl.Fabric.Reset(cl.Streams.Stream("fabric"))
	cl.Bus.Reset()
	for _, c := range cl.components {
		for _, j := range c.Jobs {
			j.reset()
		}
	}
	cl.Env.reset()
}

// RunRounds advances the simulation by n full TDMA rounds, counted from
// the first round boundary at or after Now. It is the one call that runs
// a cluster. It returns ctx.Err() when the context is cancelled mid-run
// (the cluster then stops partway through a round, observable state
// intact) and nil on completion. Runs stop 1 µs before a boundary, so a
// chained call — a checkpoint cadence, a chunked campaign, a run resumed
// from a restored checkpoint — resumes on the round grid and lands on the
// same instant as one uninterrupted run.
func (cl *Cluster) RunRounds(ctx context.Context, n int64) error {
	d := cl.Cfg.RoundDuration().Micros()
	next := (cl.Sched.Now().Micros() + d - 1) / d
	target := sim.Time((next+n)*d) - 1
	if target > cl.Sched.Now() {
		return cl.Sched.RunUntil(ctx, target)
	}
	return nil
}

// Round returns the current TDMA round.
func (cl *Cluster) Round() int64 { return cl.Bus.Round() }
