package tt

import (
	"fmt"
	"sort"

	"decos/internal/ckpt"
)

// Checkpointing of the TDMA bus. A checkpoint is taken inside a round
// hook — after the last slot of round R has been delivered and every
// controller's OnRoundEnd has run, before the slot chain event for round
// R+1 exists. The bus's semantic state at that boundary is numeric:
// liveness, babbling flags, guardian tallies, per-node membership
// records. Fault hooks (tx/rx filters) are closures and are restored by
// their owner, the fault injector, through InstallTxFault/InstallRxFault
// with their original ids — hook ids order the filter composition, so
// preserving them preserves frame perturbation semantics exactly.

// Code implements ckpt.Snapshotter: the bus's mutable state. Restoring
// does not schedule anything; call Rearm after every subsystem's state —
// including the injector's hooks and timers — is back in place.
func (b *Bus) Code(c *ckpt.Coder) error {
	ckpt.Varint(c, &b.round)
	c.Int(&b.nextHookID)
	c.Bool(&b.GuardianEnabled)
	c.Int(&b.GuardianBlocks)
	for i := range b.statusCounts {
		ckpt.Varint(c, &b.statusCounts[i])
	}
	c.Count(len(b.nodeOrder), "nodes")
	b.babblers = 0
	for _, n := range b.nodeOrder {
		id := n
		ckpt.Varint(c, &id)
		if id != n {
			c.Fail(fmt.Errorf("tt: checkpoint names node %d where the bus has node %d", id, n))
		}
		c.Bool(&b.alive[n])
		c.Bool(&b.babbling[n])
		if b.babbling[n] {
			b.babblers++
		}
		m := b.membership[n]
		c.Count(len(m.lastOK), "membership entries")
		for i := range m.lastOK {
			ckpt.Varint(c, &m.lastOK[i])
			ckpt.Varint(c, &m.lastSeen[i])
			c.Int(&m.failCount[i])
		}
	}
	return c.Err()
}

// Rearm schedules the slot chain continuation a checkpoint interrupted:
// the first slot of the earliest round starting at or after the restored
// clock. (Derived from the clock, not b.round: at a round boundary the
// next round is b.round+1, but a checkpoint taken at t=0 — before any
// slot ran — must re-arm round 0, where b.round is also 0.) It must be
// called exactly once per restore, last among the re-arming subsystems,
// so the slot event's queue position (freshest at its fire time) matches
// the uninterrupted run's.
func (b *Bus) Rearm() {
	if !b.running {
		panic("tt: Rearm before Start")
	}
	now := int64(b.Sched.Now())
	rd := b.Cfg.RoundDuration().Micros()
	r := now / rd
	if now%rd != 0 {
		r++
	}
	b.Sched.AtFunc(b.Cfg.SlotStart(r, 0), "tt.slot", b.slotFn, r, 0)
}

// HookHorizon returns the id the next fault hook will get: every
// installed hook's id is below it.
func (b *Bus) HookHorizon() int { return b.nextHookID }

// InstallTxFault reinstalls a sender-side fault hook under its original
// id (restore path only — AddTxFault allocates fresh ids). The id must
// come from a checkpoint, i.e. be below the restored id horizon.
func (b *Bus) InstallTxFault(id int, f TxFault) {
	if id >= b.nextHookID {
		panic(fmt.Sprintf("tt: InstallTxFault id %d beyond horizon %d", id, b.nextHookID))
	}
	b.txFaults = append(b.txFaults, txHook{id: id, fn: f})
	sort.SliceStable(b.txFaults, func(i, j int) bool { return b.txFaults[i].id < b.txFaults[j].id })
}

// InstallRxFault reinstalls a receiver-side fault hook under its original
// id (restore path only).
func (b *Bus) InstallRxFault(id int, f RxFault) {
	if id >= b.nextHookID {
		panic(fmt.Sprintf("tt: InstallRxFault id %d beyond horizon %d", id, b.nextHookID))
	}
	b.rxFaults = append(b.rxFaults, rxHook{id: id, fn: f})
	sort.SliceStable(b.rxFaults, func(i, j int) bool { return b.rxFaults[i].id < b.rxFaults[j].id })
}
