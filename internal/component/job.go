// Package component implements the DECOS component model (paper Section
// II-C): components as the hardware fault-containment and field-replaceable
// units, vertically partitioned into safety-critical and non-safety-critical
// subsystems, horizontally into the communication-controller layer and the
// application layer hosting jobs in dedicated partitions. Jobs are the
// software FCRs/FRUs; they communicate exclusively through virtual-network
// ports.
package component

import (
	"fmt"

	"decos/internal/sim"
	"decos/internal/vnet"
)

// Job is the application code of one job: the basic unit of work of a DAS.
// Step is invoked once per TDMA round inside the job's partition.
type Job interface {
	Step(ctx *Context)
}

// JobFunc adapts a plain function to the Job interface.
type JobFunc func(ctx *Context)

// Step calls f.
func (f JobFunc) Step(ctx *Context) { f(ctx) }

// OutFilter is a fault hook on a job's output ports. It may modify the
// payload or suppress the send (ok=false). Installed by the fault-injection
// layer to manifest software design faults and sensor faults at the LIF.
type OutFilter func(ch vnet.ChannelID, payload []byte, now sim.Time) (out []byte, ok bool)

// SensorFilter is a fault hook on a job's sensor readings (job-inherent
// transducer faults: drift, stuck-at, noise).
type SensorFilter func(name string, v float64, now sim.Time) float64

// SelfReport carries a job's internal health assertions. The paper's
// Section III-D notes that software design faults and transducer faults
// cannot be separated from interface state alone — "a differentiation of
// these two types is only possible by including job internal information
// into the assessment process". Jobs that implement SelfChecker expose
// exactly that information to the local diagnostic monitor.
type SelfReport struct {
	// TransducerSuspect is set when the job's internal plausibility
	// checks on its raw transducer readings fail (physically impossible
	// value, or a frozen reading on a dynamic signal).
	TransducerSuspect bool
	// Detail describes the failed assertion, for the service technician.
	Detail string
}

// SelfChecker is the optional job-internal assertion interface (model-based
// diagnosis hook, Section IV-B.1b). The diagnostic monitor on the job's own
// component may query it when the job-internal-assertions extension is
// enabled; the report never crosses the LIF by itself.
type SelfChecker interface {
	SelfCheck() SelfReport
}

// Instance is one deployed job: application code bound to a component
// partition, its ports, and its fault state.
type Instance struct {
	Name      string
	DAS       *DAS
	Comp      *Component
	Partition int
	Impl      Job

	// in and out are sorted by channel: a job has a handful of ports, so
	// a scan beats hashing the channel id on every send and receive.
	in  []*vnet.InPort
	out []outPort

	// Halted stops the job from executing (crashed partition / disabled
	// job). The encapsulation service guarantees a halted or misbehaving
	// job cannot affect other partitions.
	Halted bool
	// OutFault, when non-nil, perturbs every send.
	OutFault OutFilter
	// SensorFault, when non-nil, perturbs every sensor reading.
	SensorFault SensorFilter

	// Steps counts executed rounds, for liveness checks.
	Steps int

	ctx    *Context // reused per round
	stream string   // name of the job's private random stream
}

// Resetter is implemented by job implementations that hold run state
// between rounds: Reset returns that state to what the job had when it
// was deployed, keeping its configuration. Cluster.Reset calls it; every
// stateful job whose Code method makes it a ckpt.Snapshotter must be a
// Resetter too.
type Resetter interface {
	Reset()
}

// envBinder is implemented by jobs that resolve environment names to ids
// once the topology is complete (see Cluster.Seal).
type envBinder interface {
	bindEnv(e *Environment)
}

// reset returns the instance to its deployed state: running, no steps
// taken, no fault filters, its implementation reset, and its random
// stream re-opened on its next step (the stream restarts for the new run).
func (j *Instance) reset() {
	j.Halted, j.Steps = false, 0
	j.OutFault, j.SensorFault = nil, nil
	if j.ctx != nil {
		j.ctx.Rand = nil
	}
	if r, ok := j.Impl.(Resetter); ok {
		r.Reset()
	}
}

// outPort is one channel a job produces and the network carrying it.
type outPort struct {
	ch  vnet.ChannelID
	net *vnet.Network
}

// String identifies the job as "das/name@component".
func (j *Instance) String() string {
	return fmt.Sprintf("%s/%s@%s", j.DAS.Name, j.Name, j.Comp.Name)
}

// InPort returns the job's subscription on ch, or nil.
func (j *Instance) InPort(ch vnet.ChannelID) *vnet.InPort {
	for _, p := range j.in {
		if p.Channel == ch {
			return p
		}
	}
	return nil
}

// outNet returns the network carrying the job's output channel ch, or nil.
func (j *Instance) outNet(ch vnet.ChannelID) *vnet.Network {
	for _, o := range j.out {
		if o.ch == ch {
			return o.net
		}
	}
	return nil
}

// InChannels returns the channels the job subscribes to, in ascending
// order.
func (j *Instance) InChannels() []vnet.ChannelID {
	out := make([]vnet.ChannelID, len(j.in))
	for i, p := range j.in {
		out[i] = p.Channel
	}
	return out
}

// Context is the execution environment handed to a job on every Step.
type Context struct {
	Now   sim.Time
	Round int64
	Job   *Instance
	// Rand is the job's private random stream.
	Rand *sim.RNG
	env  *Environment

	fbuf [8]byte // SendFloat scratch (Send copies the payload)
}

// Send publishes payload on one of the job's output channels, applying any
// installed fault filter. It reports whether the message was accepted by
// the virtual network (false = suppressed by a fault or queue overflow).
func (c *Context) Send(ch vnet.ChannelID, payload []byte) bool {
	n := c.Job.outNet(ch)
	if n == nil {
		panic(fmt.Sprintf("component: job %s sends on undeclared channel %d", c.Job, ch))
	}
	if f := c.Job.OutFault; f != nil {
		var pass bool
		payload, pass = f(ch, payload, c.Now)
		if !pass {
			return false
		}
	}
	return n.Send(ch, payload, c.Now)
}

// SendFloat publishes a float64 value on ch.
func (c *Context) SendFloat(ch vnet.ChannelID, v float64) bool {
	return c.Send(ch, vnet.AppendFloat(c.fbuf[:0], v))
}

// Receive pops the oldest queued message on one of the job's input ports.
func (c *Context) Receive(ch vnet.ChannelID) (vnet.Message, bool) {
	p := c.Job.InPort(ch)
	if p == nil {
		panic(fmt.Sprintf("component: job %s receives on unsubscribed channel %d", c.Job, ch))
	}
	return p.Receive()
}

// Latest peeks at the newest message on an input port without consuming the
// queue (state-port style access).
func (c *Context) Latest(ch vnet.ChannelID) (vnet.Message, bool) {
	p := c.Job.InPort(ch)
	if p == nil {
		panic(fmt.Sprintf("component: job %s reads unsubscribed channel %d", c.Job, ch))
	}
	return p.Peek()
}

// sensor samples environment signal id (named name) through the job's
// exclusive transducer, applying any installed sensor fault.
func (c *Context) sensor(id int, name string) float64 {
	v := c.env.sampleID(id, c.Now)
	if f := c.Job.SensorFault; f != nil {
		v = f(name, v, c.Now)
	}
	return v
}

// Actuate drives the named actuator with value v.
func (c *Context) Actuate(name string, v float64) {
	c.env.Actuate(name, v, c.Now)
}
