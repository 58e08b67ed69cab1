package component

import (
	"math"

	"decos/internal/vnet"
)

// VoterJob implements the redundancy-management high-level service for a
// triple-modular-redundant job set (paper Fig. 10: jobs S1, S2, S3 on three
// different components). Every round it reads the newest value of each
// replica channel, performs inexact majority voting within Tolerance, and
// publishes the voted value on Out. Disagreements and replica silence are
// counted per replica — the observations an ONA over the TMR set consumes.
type VoterJob struct {
	// Ins are the three replica channels, each produced on a distinct
	// component (the FCR for hardware faults).
	Ins [3]vnet.ChannelID
	// Out carries the voted value; 0 disables publication (monitor-only).
	Out vnet.ChannelID
	// Tolerance is the maximum deviation between replica values that still
	// counts as agreement.
	Tolerance float64

	// Disagreements[i] counts rounds in which replica i deviated from the
	// majority value by more than Tolerance.
	Disagreements [3]int
	// Missing[i] counts rounds in which replica i had no fresh value.
	Missing [3]int
	// Voted counts rounds with a successful majority.
	Voted int
	// NoMajority counts rounds in which fresh values existed but no two
	// replicas agreed.
	NoMajority int
	// Silent counts rounds in which no replica delivered a fresh value
	// (startup, or total communication loss).
	Silent int

	lastSeq [3]uint32
	started [3]bool
}

// Reset implements Resetter.
func (v *VoterJob) Reset() {
	*v = VoterJob{Ins: v.Ins, Out: v.Out, Tolerance: v.Tolerance}
}

// Step implements Job.
func (v *VoterJob) Step(ctx *Context) {
	var vals [3]float64
	var fresh [3]bool
	for i, ch := range v.Ins {
		m, ok := ctx.Latest(ch)
		if !ok {
			v.Missing[i]++
			continue
		}
		// A value is fresh if its sequence number advanced since the last
		// round (TT replicas republish every round).
		if v.started[i] && m.Seq == v.lastSeq[i] {
			v.Missing[i]++
			continue
		}
		v.lastSeq[i] = m.Seq
		v.started[i] = true
		val := m.Float()
		if math.IsNaN(val) {
			v.Missing[i]++
			continue
		}
		vals[i] = val
		fresh[i] = true
	}

	// Majority vote: find a pair within tolerance; the voted value is their
	// midpoint. With three replicas a single arbitrary failure is masked.
	best := -1
	var voted float64
	for i := 0; i < 3 && best < 0; i++ {
		for j := i + 1; j < 3; j++ {
			if fresh[i] && fresh[j] && math.Abs(vals[i]-vals[j]) <= v.Tolerance {
				voted = (vals[i] + vals[j]) / 2
				best = i
				break
			}
		}
	}
	if best < 0 {
		if !fresh[0] && !fresh[1] && !fresh[2] {
			v.Silent++
		} else {
			v.NoMajority++
		}
		return
	}
	v.Voted++
	for i := 0; i < 3; i++ {
		if fresh[i] && math.Abs(vals[i]-voted) > v.Tolerance {
			v.Disagreements[i]++
		}
	}
	if v.Out != 0 {
		ctx.SendFloat(v.Out, voted)
	}
}
