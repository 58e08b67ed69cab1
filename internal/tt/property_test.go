package tt

import (
	"context"
	"testing"
	"testing/quick"

	"decos/internal/sim"
)

// Property: all live nodes' membership views agree at every round boundary
// for any pattern of node deaths and revivals — core service C4.
func TestMembershipConsistencyProperty(t *testing.T) {
	f := func(seed uint64, killPattern, reviveRound uint8) bool {
		sched := sim.NewScheduler()
		cfg := UniformSchedule(4, 250*sim.Microsecond, 16)
		bus := NewBus(cfg, sched)
		ctrls := make([]*recController, 4)
		for i := range ctrls {
			ctrls[i] = &recController{id: NodeID(i), payload: []byte{byte(i)}}
			bus.Attach(NodeID(i), ctrls[i])
		}
		consistent := true
		bus.OnRound(func(round int64) {
			var ref *Membership
			for n := NodeID(0); n < 4; n++ {
				if !bus.Alive(n) {
					continue
				}
				m := bus.Membership(n)
				if ref == nil {
					ref = m
					continue
				}
				if !m.Agrees(ref, round) {
					consistent = false
				}
			}
		})
		bus.Start()

		// Deterministic kill/revive schedule derived from the inputs.
		victim := NodeID(killPattern % 3)
		killAt := int64(killPattern%17) + 1
		reviveAt := killAt + int64(reviveRound%13) + 1
		sched.At(cfg.SlotStart(killAt, 0), "kill", func() { bus.SetAlive(victim, false) })
		sched.At(cfg.SlotStart(reviveAt, 0), "revive", func() { bus.SetAlive(victim, true) })

		sched.RunUntil(context.Background(), sim.Time(40*cfg.RoundDuration().Micros()-1))
		return consistent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the guardian keeps foreign slots untouched for any set of
// babbling nodes — core service C3 holds regardless of how many FCRs
// babble simultaneously.
func TestGuardianIsolationProperty(t *testing.T) {
	f := func(babblers uint8) bool {
		sched := sim.NewScheduler()
		cfg := UniformSchedule(4, 250*sim.Microsecond, 16)
		bus := NewBus(cfg, sched)
		for i := 0; i < 4; i++ {
			bus.Attach(NodeID(i), &recController{id: NodeID(i), payload: []byte{byte(i)}})
		}
		babbling := map[NodeID]bool{}
		for n := NodeID(0); n < 4; n++ {
			if babblers&(1<<uint(n)) != 0 {
				bus.SetBabbling(n, true)
				babbling[n] = true
			}
		}
		ok := true
		bus.Observe(func(fr *Frame, _ []FrameStatus) {
			// Non-babbling senders' frames must stay intact.
			if !babbling[fr.Sender] && fr.Status.Failed() {
				ok = false
			}
		})
		bus.Start()
		sched.RunUntil(context.Background(), sim.Time(10*cfg.RoundDuration().Micros()-1))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
