// Package tt implements the time-triggered core network of the DECOS
// integrated architecture: a TDMA broadcast bus with a static slot schedule,
// slot enforcement (the bus-guardian function), a consistent membership
// service, and hooks through which the fault-injection layer perturbs
// transmission and reception.
//
// The package provides the four core services the paper's waist-line
// architecture requires of any base architecture (Section II-B):
//
//	C1  predictable transport of messages   — the TDMA schedule itself
//	C2  fault-tolerant clock sync           — via internal/clock, driven here
//	C3  strong fault isolation              — slot guardian + per-node FCRs
//	C4  consistent diagnosis of failing nodes — the membership service
package tt

import (
	"fmt"

	"decos/internal/sim"
)

// NodeID identifies a node (a DECOS component's communication controller) on
// the core network.
type NodeID int

// NoNode marks an unassigned slot.
const NoNode NodeID = -1

// Config is the static TDMA configuration of a cluster. It is immutable
// during a run, matching the pre-run configuration of time-triggered
// communication controllers.
type Config struct {
	// SlotDuration is the length of one TDMA slot.
	SlotDuration sim.Duration
	// Slots maps slot index within a round to the sending node. A node may
	// own several slots; NoNode leaves a slot idle.
	Slots []NodeID
	// PayloadBytes is the frame payload size available to the virtual
	// network layer per slot.
	PayloadBytes int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SlotDuration <= 0 {
		return fmt.Errorf("tt: non-positive slot duration %v", c.SlotDuration)
	}
	if len(c.Slots) == 0 {
		return fmt.Errorf("tt: empty slot schedule")
	}
	if c.PayloadBytes <= 0 {
		return fmt.Errorf("tt: non-positive payload size %d", c.PayloadBytes)
	}
	owned := false
	for _, n := range c.Slots {
		if n != NoNode {
			owned = true
			if n < 0 {
				return fmt.Errorf("tt: invalid node id %d in schedule", n)
			}
		}
	}
	if !owned {
		return fmt.Errorf("tt: schedule assigns no slots")
	}
	return nil
}

// RoundDuration returns the length of one TDMA round.
func (c Config) RoundDuration() sim.Duration {
	return c.SlotDuration * sim.Duration(len(c.Slots))
}

// SlotStart returns the global start time of the given slot of the given
// round.
func (c Config) SlotStart(round int64, slot int) sim.Time {
	return sim.Time((round*int64(len(c.Slots)) + int64(slot)) * c.SlotDuration.Micros())
}

// Nodes returns the sorted set of node ids that own at least one slot.
func (c Config) Nodes() []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, n := range c.Slots {
		if n != NoNode && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	// Insertion sort: node counts are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// UniformSchedule returns a Config in which nodes 0..n-1 each own exactly one
// slot, in node order.
func UniformSchedule(n int, slotDur sim.Duration, payloadBytes int) Config {
	slots := make([]NodeID, n)
	for i := range slots {
		slots[i] = NodeID(i)
	}
	return Config{SlotDuration: slotDur, Slots: slots, PayloadBytes: payloadBytes}
}
