package component

import (
	"fmt"
	"slices"
	"strings"

	"decos/internal/ckpt"
)

// Checkpointing of the application layer. The deployment (components,
// DASs, jobs, ports, specs) is configuration wired by the engine's
// build path and kept by a reset; a checkpoint carries the mutable per-job run state and the
// environment's actuator history. Jobs whose implementation holds state
// between rounds implement ckpt.Snapshotter; the standard jobs below do.
// The fault filters (OutFault/SensorFault) are closures owned by the
// fault injector and restored by it.

// Code implements ckpt.Snapshotter for the engine's "jobs" section: every
// job's instance state (component id order, partition order within a
// component) plus any implementation state. The job topology is
// structural, so any mismatch is corruption.
func (cl *Cluster) Code(c *ckpt.Coder) error {
	comps := cl.Components()
	c.Count(len(comps), "components")
	for i, comp := range comps {
		id := comp.ID
		ckpt.Index(c, &id, 1<<16, "node")
		if c.Err() == nil && id != comp.ID {
			return fmt.Errorf("component: checkpoint component %d is node %d, cluster has %d", i, id, comp.ID)
		}
		c.Count(len(comp.Jobs), "jobs")
		for _, j := range comp.Jobs {
			c.Bool(&j.Halted)
			c.Int(&j.Steps)
			s, ok := j.Impl.(ckpt.Snapshotter)
			hasState := ok
			c.Bool(&hasState)
			if err := c.Err(); err != nil {
				return err
			}
			if hasState != ok {
				return fmt.Errorf("component: checkpoint/implementation state mismatch for job %s", j)
			}
			if ok {
				if err := s.Code(c); err != nil {
					return fmt.Errorf("component: job %s: %w", j, err)
				}
			}
		}
	}
	return c.Err()
}

func codeActuation(c *ckpt.Coder, a *Actuation) {
	ckpt.Varint(c, &a.At)
	c.Float64(&a.Value)
}

// Code implements ckpt.Snapshotter: the environment's actuator history in
// name order, every actuator that recorded a command. Signals are pure
// time functions (configuration) and are excluded.
func (e *Environment) Code(c *ckpt.Coder) error {
	var acts []*actuator
	if c.Decoding() {
		e.reset()
	} else {
		for _, a := range e.actuators {
			if a.log.Len() > 0 {
				acts = append(acts, a)
			}
		}
		slices.SortFunc(acts, func(a, b *actuator) int { return strings.Compare(a.name, b.name) })
	}
	ckpt.Slice(c, &acts, 1<<16, func(c *ckpt.Coder, a **actuator) {
		var name string
		if *a != nil {
			name = (*a).name
		}
		c.String(&name)
		if c.Err() != nil {
			return
		}
		if c.Decoding() {
			*a = e.actuators[e.actuatorID(name)]
		}
		ckpt.Log(c, &(*a).log, 1<<24, codeActuation)
	})
	return c.Err()
}

// The stateful standard jobs implement ckpt.Snapshotter. Every field that
// influences a future round's output crosses the wire; configuration
// fields do not.

func (s *SensorJob) Code(c *ckpt.Coder) error {
	c.Float64(&s.lastRaw)
	c.Bool(&s.haveRaw)
	c.Int(&s.frozenRuns)
	c.Bool(&s.report.TransducerSuspect)
	c.String(&s.report.Detail)
	return c.Err()
}

func (j *ControlJob) Code(c *ckpt.Coder) error {
	c.Int(&j.RejectedInputs)
	c.Float64(&j.lastOut)
	c.Bool(&j.hasOut)
	return c.Err()
}

func (b *BurstyJob) Code(c *ckpt.Coder) error {
	c.Int(&b.Rejected)
	c.Float64(&b.counter)
	return c.Err()
}

func (s *SinkJob) Code(c *ckpt.Coder) error {
	c.Int(&s.Received)
	return c.Err()
}

func (v *VoterJob) Code(c *ckpt.Coder) error {
	for i := 0; i < 3; i++ {
		c.Int(&v.Disagreements[i])
		c.Int(&v.Missing[i])
		ckpt.Uvarint(c, &v.lastSeq[i])
		c.Bool(&v.started[i])
	}
	c.Int(&v.Voted)
	c.Int(&v.NoMajority)
	c.Int(&v.Silent)
	return c.Err()
}
