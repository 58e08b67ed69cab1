package component

import "decos/internal/vnet"

// The standard job implementations below cover the application archetypes
// of the paper's automotive scenarios: sensing, control, actuation, bursty
// event traffic, and TMR voting. They are used by the examples and the
// experiment harness; user code can supply any Job implementation.

// SensorJob samples one environment signal through its exclusive transducer
// every round and publishes the reading on Out.
//
// When PhysMin < PhysMax or FrozenWindow > 0, the job runs internal
// plausibility assertions on its raw readings (before any software
// processing) and implements SelfChecker: a physically impossible or
// frozen-on-a-dynamic-signal reading marks the transducer suspect. These
// checks see the faulted sensor value but run before the job's outputs, so
// they separate transducer faults from software design faults — the
// job-internal information of the paper's Section III-D.
type SensorJob struct {
	Signal string
	Out    vnet.ChannelID
	// NoiseStd adds Gaussian measurement noise (a property of the correct
	// sensor, distinct from injected sensor faults).
	NoiseStd float64
	// PhysMin/PhysMax bound physically possible raw readings.
	PhysMin, PhysMax float64
	// FrozenWindow flags a dynamic signal whose raw reading is
	// bit-identical for this many consecutive samples.
	FrozenWindow int

	lastRaw    float64
	haveRaw    bool
	frozenRuns int
	report     SelfReport

	sig int // Signal's environment id
}

func (s *SensorJob) bindEnv(e *Environment) { s.sig = e.signalID(s.Signal) }

// Reset implements Resetter.
func (s *SensorJob) Reset() {
	s.lastRaw, s.haveRaw, s.frozenRuns, s.report = 0, false, 0, SelfReport{}
}

// Step implements Job.
func (s *SensorJob) Step(ctx *Context) {
	raw := ctx.sensor(s.sig, s.Signal)
	s.selfCheck(raw)
	v := raw
	if s.NoiseStd > 0 {
		v += ctx.Rand.Norm(0, s.NoiseStd)
	}
	ctx.SendFloat(s.Out, v)
}

func (s *SensorJob) selfCheck(raw float64) {
	outOfRange := s.PhysMin < s.PhysMax && (raw != raw || raw < s.PhysMin || raw > s.PhysMax)
	frozen := false
	if s.FrozenWindow > 0 {
		if s.haveRaw && raw == s.lastRaw {
			s.frozenRuns++
		} else {
			s.frozenRuns = 0
		}
		s.lastRaw = raw
		s.haveRaw = true
		frozen = s.frozenRuns >= s.FrozenWindow
	}
	switch {
	case outOfRange:
		s.report = SelfReport{TransducerSuspect: true, Detail: "raw reading outside physical range"}
	case frozen:
		s.report = SelfReport{TransducerSuspect: true, Detail: "raw reading frozen on dynamic signal"}
	default:
		s.report = SelfReport{}
	}
}

// SelfCheck implements SelfChecker.
func (s *SensorJob) SelfCheck() SelfReport { return s.report }

// ControlJob reads the newest value on In, applies Gain and Offset, and
// publishes the command on Out — a proportional control law, enough to give
// value errors a propagation path. When InMin < InMax, inputs outside that
// range are rejected (defensive input validation, as certified jobs
// practice): the job holds its last good output rather than propagating an
// implausible value.
type ControlJob struct {
	In, Out      vnet.ChannelID
	Gain, Offset float64
	InMin, InMax float64
	// RejectedInputs counts discarded implausible inputs.
	RejectedInputs int

	lastOut float64
	hasOut  bool
}

// Reset implements Resetter.
func (c *ControlJob) Reset() { c.RejectedInputs, c.lastOut, c.hasOut = 0, 0, false }

// Step implements Job.
func (c *ControlJob) Step(ctx *Context) {
	m, ok := ctx.Latest(c.In)
	if !ok {
		return
	}
	v := m.Float()
	if c.InMin < c.InMax && (v != v || v < c.InMin || v > c.InMax) {
		c.RejectedInputs++
		if c.hasOut {
			ctx.SendFloat(c.Out, c.lastOut) // hold last good value
		}
		return
	}
	c.lastOut = c.Gain*v + c.Offset
	c.hasOut = true
	ctx.SendFloat(c.Out, c.lastOut)
}

// ActuatorJob consumes commands from In and drives the named actuator.
type ActuatorJob struct {
	In       vnet.ChannelID
	Actuator string

	act int // Actuator's environment id
}

func (a *ActuatorJob) bindEnv(e *Environment) { a.act = e.actuatorID(a.Actuator) }

// Step implements Job.
func (a *ActuatorJob) Step(ctx *Context) {
	for {
		m, ok := ctx.Receive(a.In)
		if !ok {
			return
		}
		ctx.env.actuateID(a.act, m.Float(), ctx.Now)
	}
}

// BurstyJob emits a Poisson-distributed number of event messages per round
// on Out — the event-triggered legacy traffic whose queue dimensioning the
// job-borderline (configuration) faults concern.
type BurstyJob struct {
	Out vnet.ChannelID
	// MeanPerRound is the Poisson mean of messages per round.
	MeanPerRound float64
	// Rejected counts sends refused by the virtual network (queue full).
	Rejected int
	counter  float64
}

// Reset implements Resetter.
func (b *BurstyJob) Reset() { b.Rejected, b.counter = 0, 0 }

// Step implements Job.
func (b *BurstyJob) Step(ctx *Context) {
	n := ctx.Rand.Poisson(b.MeanPerRound)
	for i := 0; i < n; i++ {
		b.counter++
		if !ctx.SendFloat(b.Out, b.counter) {
			b.Rejected++
		}
	}
}

// SinkJob drains In every round, so receive-queue behaviour is governed by
// the network dimensioning rather than consumer speed.
type SinkJob struct {
	In       vnet.ChannelID
	Received int
}

// Reset implements Resetter.
func (s *SinkJob) Reset() { s.Received = 0 }

// Step implements Job.
func (s *SinkJob) Step(ctx *Context) {
	for {
		if _, ok := ctx.Receive(s.In); !ok {
			return
		}
		s.Received++
	}
}
