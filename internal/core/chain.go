package core

import (
	"fmt"

	"decos/internal/sim"
)

// The fault-error-failure chain (paper Fig. 3, after Laprie): a fault is the
// adjudged cause of an error; an error is the unintended state; a failure is
// the deviation of the delivered service from the specification at the LIF.
// The diagnostic subsystem reverses this chain: from observed failures back
// to a fault classified at FRU level.

// StageKind labels one link of the chain.
type StageKind int

const (
	// StageFault is the root cause, stated at FRU level.
	StageFault StageKind = iota
	// StageError is an unintended internal state.
	StageError
	// StageFailure is a LIF-visible service deviation.
	StageFailure
	// NumStageKinds is the number of stage kinds.
	NumStageKinds
)

func (k StageKind) String() string {
	switch k {
	case StageFault:
		return "fault"
	case StageError:
		return "error"
	case StageFailure:
		return "failure"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// Stage is one link in a recorded fault-error-failure chain.
type Stage struct {
	Kind StageKind
	At   sim.Time
	// FRU locates the stage.
	FRU FRU
	// Detail is a human-readable description ("crack in PCB", "state
	// variable speed out of range", "omission in slot 3").
	Detail string
}

// Chain is a recorded fault-error-failure trace for one incident: the
// ground-truth ledger of the fault injector and the explanation artifact of
// the diagnostic assessment (experiment E2).
type Chain struct {
	Stages []Stage
}

// Append adds a stage. Stages must be appended in causal order
// (fault → error* → failure*); Append panics when the kind regresses, which
// would indicate a bookkeeping bug in the simulator.
func (c *Chain) Append(s Stage) {
	if n := len(c.Stages); n > 0 && s.Kind < c.Stages[n-1].Kind {
		panic(fmt.Sprintf("core: chain stage %v after %v", s.Kind, c.Stages[n-1].Kind))
	}
	c.Stages = append(c.Stages, s)
}

// Root returns the fault stage, ok=false for an empty chain.
func (c *Chain) Root() (Stage, bool) {
	if len(c.Stages) == 0 || c.Stages[0].Kind != StageFault {
		return Stage{}, false
	}
	return c.Stages[0], true
}

// Failures returns the failure stages of the chain.
func (c *Chain) Failures() []Stage {
	var out []Stage
	for _, s := range c.Stages {
		if s.Kind == StageFailure {
			out = append(out, s)
		}
	}
	return out
}

// Complete reports whether the chain runs from a fault to at least one
// failure — i.e. the incident became observable at a LIF.
func (c *Chain) Complete() bool {
	_, hasRoot := c.Root()
	return hasRoot && len(c.Failures()) > 0
}

func (c *Chain) String() string {
	s := ""
	for i, st := range c.Stages {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%s(%s: %s)", st.Kind, st.FRU, st.Detail)
	}
	return s
}
