package diagnosis

import (
	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Diagnostics is the fully wired integrated diagnostic architecture on one
// cluster: per-component monitors, the virtual diagnostic network, and the
// assessor of the diagnostic DAS.
type Diagnostics struct {
	Reg      *Registry
	Assessor *Assessor
	Monitors []*Monitor
	Net      *vnet.Network
	// Node hosts the diagnostic DAS's analysis stage.
	Node tt.NodeID

	cl   *component.Cluster
	opts Options
}

// Attach builds the diagnostic architecture on a cluster. It must be called
// after all application DASs, jobs, channels and subscriptions are
// configured, and before the cluster is started (the diagnostic network
// needs its frame segment).
func Attach(cl *component.Cluster, diagNode tt.NodeID, opts Options) *Diagnostics {
	opts = opts.withDefaults()
	reg := NewRegistry(cl)

	// The dedicated virtual diagnostic network: an event-triggered channel
	// per component, all consumed by the diagnostic DAS.
	net := vnet.NewNetwork("diagnosis", vnet.EventTriggered, "diagnosis")
	cl.Fabric.AddNetwork(net)
	comps := cl.Components()
	for _, c := range comps {
		net.AddEndpoint(c.ID, opts.DiagAllocBytes, DiagQueueCap)
		net.DeclareChannel(DiagChannelBase+vnet.ChannelID(c.ID), c.ID)
	}

	assessor := NewAssessor(reg, opts)
	for _, c := range comps {
		ch := DiagChannelBase + vnet.ChannelID(c.ID)
		assessor.Subscribe(cl.Fabric.Subscribe(diagNode, ch, 0, false))
	}

	d := &Diagnostics{
		Reg:      reg,
		Assessor: assessor,
		Net:      net,
		Node:     diagNode,
		cl:       cl,
		opts:     opts,
	}

	for _, c := range comps {
		d.Monitors = append(d.Monitors, d.buildMonitor(c))
	}

	// Frame-level observation: dispatch each receiver's view to its
	// monitor.
	cl.Bus.Observe(func(f *tt.Frame, per []tt.FrameStatus) {
		for _, m := range d.Monitors {
			if cl.Bus.Alive(m.Node) {
				m.onSlot(f, per[m.Node])
			}
		}
	})

	// Round-driven detection flush and assessment.
	cl.OnRound(func(round int64, now sim.Time) {
		for _, m := range d.Monitors {
			if cl.Bus.Alive(m.Node) {
				m.onRound(round, now)
			}
		}
		if cl.Bus.Alive(diagNode) {
			assessor.onRound(round, now)
		}
	})

	return d
}

// Reset returns the diagnostic architecture to its just-attached state
// for a new run on a reset cluster (component.Cluster.Reset), keeping the
// wiring and all storage: every monitor and the assessment pipeline —
// collector, history, α-counts, adviser and classification stage — start
// over.
func (d *Diagnostics) Reset() {
	for _, m := range d.Monitors {
		m.reset()
	}
	d.Assessor.reset()
}

func (d *Diagnostics) buildMonitor(c *component.Component) *Monitor {
	self, _ := d.Reg.HardwareIndex(c.ID)
	m := &Monitor{
		Node:    c.ID,
		Chan:    DiagChannelBase + vnet.ChannelID(c.ID),
		reg:     d.Reg,
		cl:      d.cl,
		net:     d.Net,
		self:    self,
		KeepLog: d.opts.KeepMonitorLogs,
	}

	// Port trackers: every application in-port of a job on this component
	// with a registered LIF spec.
	for _, j := range c.Jobs {
		jobFRU, ok := d.Reg.Index(core.SoftwareFRU(int(c.ID), j.DAS.Name+"/"+j.Name))
		if !ok {
			continue
		}
		for _, ch := range j.InChannels() {
			if ch >= DiagChannelBase {
				continue
			}
			meta, ok := d.Reg.Channel(ch)
			if !ok {
				continue
			}
			m.ports = append(m.ports, &portTracker{
				port:  j.InPort(ch),
				meta:  meta,
				owner: jobFRU,
			})
		}
		// Job-internal assertion hook (extension).
		if d.opts.JobInternalAssertions {
			if sc, ok := j.Impl.(component.SelfChecker); ok {
				m.selfCheckers = append(m.selfCheckers, selfTracker{checker: sc, job: j, subject: jobFRU})
			}
		}
		// Voter trackers for the redundancy-management service.
		if v, ok := j.Impl.(*component.VoterJob); ok {
			vt := &voterTracker{voter: v}
			valid := true
			for i, ch := range v.Ins {
				meta, ok := d.Reg.Channel(ch)
				if !ok {
					valid = false
					break
				}
				vt.replicaSubject[i] = meta.ProducerJob
				vt.replicaChannel[i] = ch
			}
			if valid {
				m.voters = append(m.voters, vt)
			}
		}
	}

	// Sender-side overflow trackers: one per application network endpoint
	// on this component, attributed to the producing job of the
	// endpoint's first local channel.
	for _, n := range d.cl.Fabric.Networks() {
		if n == d.Net {
			continue
		}
		ep := n.Endpoint(c.ID)
		if ep == nil {
			continue
		}
		for _, ch := range n.Channels() {
			if prod, ok := n.Producer(ch); ok && prod == c.ID {
				if meta, ok := d.Reg.Channel(ch); ok {
					m.txs = append(m.txs, &txTracker{ep: ep, subject: meta.ProducerJob, channel: ch})
					break
				}
			}
		}
	}

	return m
}

// TrustOf returns the current trust level of a FRU by value.
func (d *Diagnostics) TrustOf(f core.FRU) core.TrustLevel {
	idx, ok := d.Reg.Index(f)
	if !ok {
		return 1
	}
	return d.Assessor.Trust(idx)
}

// VerdictOf returns the standing verdict for a FRU by value.
func (d *Diagnostics) VerdictOf(f core.FRU) (Verdict, bool) {
	idx, ok := d.Reg.Index(f)
	if !ok {
		return Verdict{}, false
	}
	return d.Assessor.Current(idx)
}

// Advise implements the maintenance advisor interface: the recommended
// action and diagnosed class for a FRU, per the standing verdict.
func (d *Diagnostics) Advise(f core.FRU) (core.MaintenanceAction, core.FaultClass, bool) {
	v, ok := d.VerdictOf(f)
	if !ok {
		return core.ActionNone, core.ClassUnknown, false
	}
	return v.Action, v.Class, true
}
