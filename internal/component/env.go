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
//
// Signals and actuators live in slices indexed by ids that signalID and
// actuatorID hand out; the standard jobs resolve their names to ids when
// the cluster is sealed, so sampling and actuating on the round path
// index a slice instead of hashing a name.
type Environment struct {
	signals     []Signal
	signalIDs   map[string]int
	actuators   []*actuator
	actuatorIDs map[string]int
	actuatorCap int
}

// actuator is one named actuator's command history.
type actuator struct {
	name string
	log  seglog.Log[Actuation]
}

// NewEnvironment returns an empty environment. Per-actuator history is
// capped at cap entries (0 = unbounded) to keep long campaigns bounded.
func NewEnvironment(cap int) *Environment {
	return &Environment{
		signalIDs:   make(map[string]int),
		actuatorIDs: make(map[string]int),
		actuatorCap: cap,
	}
}

// signalID returns the id of the named signal, reserving one for a name
// not defined yet: it reads as 0 until Define gives it a signal.
func (e *Environment) signalID(name string) int {
	id, ok := e.signalIDs[name]
	if !ok {
		id = len(e.signals)
		e.signals = append(e.signals, nil)
		e.signalIDs[name] = id
	}
	return id
}

// Define registers a named signal, replacing any earlier definition.
func (e *Environment) Define(name string, s Signal) { e.signals[e.signalID(name)] = s }

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

// sampleID reads signal id at time at. A signal never defined reads as
// 0 — a disconnected transducer, not a programming error.
func (e *Environment) sampleID(id int, at sim.Time) float64 {
	if s := e.signals[id]; s != nil {
		return s(at)
	}
	return 0
}

// actuatorID returns the id of the named actuator, creating its (empty)
// history on first use.
func (e *Environment) actuatorID(name string) int {
	id, ok := e.actuatorIDs[name]
	if !ok {
		id = len(e.actuators)
		e.actuators = append(e.actuators, &actuator{name: name})
		e.actuatorIDs[name] = id
	}
	return id
}

// Actuate records an actuator command.
func (e *Environment) Actuate(name string, v float64, at sim.Time) {
	e.actuateID(e.actuatorID(name), v, at)
}

// actuateID is Actuate by actuator id. The history is a segmented log, so
// once it reaches the cap, recording a command allocates nothing.
func (e *Environment) actuateID(id int, v float64, at sim.Time) {
	h := &e.actuators[id].log
	h.Append(Actuation{At: at, Value: v})
	if e.actuatorCap > 0 {
		h.DropFront(h.Len() - e.actuatorCap)
	}
}

// history returns the named actuator's log, or nil.
func (e *Environment) history(name string) *seglog.Log[Actuation] {
	if id, ok := e.actuatorIDs[name]; ok {
		return &e.actuators[id].log
	}
	return nil
}

// Actuations returns a copy of the recorded history of one actuator.
func (e *Environment) Actuations(name string) []Actuation {
	h := e.history(name)
	if h == nil {
		return nil
	}
	var out []Actuation
	for k := 0; k < h.NumSegs(); k++ {
		out = append(out, h.Seg(k)...)
	}
	return out
}

// LastActuation returns the most recent command on the actuator.
func (e *Environment) LastActuation(name string) (Actuation, bool) {
	if h := e.history(name); h != nil {
		return h.Last()
	}
	return Actuation{}, false
}

// reset empties every actuator history, keeping the logs' segments.
func (e *Environment) reset() {
	for _, a := range e.actuators {
		a.log.Reset()
	}
}
