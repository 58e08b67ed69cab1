package component

import (
	"math"

	"decos/internal/seglog"
	"decos/internal/sim"
)

// Signal is a time function representing one physical quantity of the
// controlled object (wheel speed, brake pressure, ...).
type Signal func(at sim.Time) float64

// Actuation is one recorded actuator command.
type Actuation struct {
	At    sim.Time
	Value float64
}

// Environment is the controlled object: named sensor signals and actuator
// recording. Jobs access it exclusively through their own transducers
// (Context.Sensor / Context.Actuate), matching the DECOS assumption that
// every job has exclusive access to its sensors and actuators.
type Environment struct {
	signals     map[string]Signal
	actuations  map[string]*seglog.Log[Actuation]
	actuatorCap int
}

// NewEnvironment returns an empty environment. Per-actuator history is
// capped at cap entries (0 = unbounded) to keep long campaigns bounded.
func NewEnvironment(cap int) *Environment {
	return &Environment{
		signals:     make(map[string]Signal),
		actuations:  make(map[string]*seglog.Log[Actuation]),
		actuatorCap: cap,
	}
}

// Define registers a named signal.
func (e *Environment) Define(name string, s Signal) { e.signals[name] = s }

// DefineSine registers amplitude·sin(2π·t/period) + offset.
func (e *Environment) DefineSine(name string, amplitude float64, period sim.Duration, offset float64) {
	e.Define(name, func(at sim.Time) float64 {
		return amplitude*math.Sin(2*math.Pi*float64(at)/float64(period)) + offset
	})
}

// DefineConst registers a constant signal.
func (e *Environment) DefineConst(name string, v float64) {
	e.Define(name, func(sim.Time) float64 { return v })
}

// Sample reads the named signal at time at. Unknown signals read as 0 — a
// disconnected transducer, not a programming error.
func (e *Environment) Sample(name string, at sim.Time) float64 {
	if s, ok := e.signals[name]; ok {
		return s(at)
	}
	return 0
}

// Actuate records an actuator command. The history is a segmented log, so
// once it reaches the cap, recording a command allocates nothing.
func (e *Environment) Actuate(name string, v float64, at sim.Time) {
	h := e.actuations[name]
	if h == nil {
		h = new(seglog.Log[Actuation])
		e.actuations[name] = h
	}
	h.Append(Actuation{At: at, Value: v})
	if e.actuatorCap > 0 {
		h.DropFront(h.Len() - e.actuatorCap)
	}
}

// Actuations returns a copy of the recorded history of one actuator.
func (e *Environment) Actuations(name string) []Actuation {
	if h := e.actuations[name]; h != nil {
		return h.AppendTo(nil)
	}
	return nil
}

// LastActuation returns the most recent command on the actuator.
func (e *Environment) LastActuation(name string) (Actuation, bool) {
	if h := e.actuations[name]; h != nil {
		return h.Last()
	}
	return Actuation{}, false
}
