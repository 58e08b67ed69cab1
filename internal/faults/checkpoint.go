package faults

import (
	"fmt"
	"sort"

	"decos/internal/ckpt"
	"decos/internal/core"
	"decos/internal/sim"
)

// Checkpointing of the fault injector. The ledger structure (which faults
// exist, their windows, culprits, role handlers) is reconstructed by
// re-running the fault manifest; the checkpoint carries each activation's
// phase: recorded chain and episodes, the deactivation latch, phase
// flags, pending timers and installed bus hooks. Restore re-arms the
// pending timers in original arm order and reinstalls the hooks under
// their original bus handles, so the restored run perturbs frames
// bit-identically to the uninterrupted one.

func codeStage(c *ckpt.Coder, st *core.Stage) {
	ckpt.Enum(c, &st.Kind, core.NumStageKinds)
	ckpt.Varint(c, &st.At)
	c.Int(&st.FRU.Component)
	c.String(&st.FRU.Job)
	c.String(&st.Detail)
}

// code codes one activation's phase. Decoding validates every timer and
// hook against the reconstructed activation and the restored scheduler
// clock and bus hook-id horizon, so re-arming them cannot fail.
func (in *Injector) code(c *ckpt.Coder, a *Activation) {
	id := a.ID
	if c.Int(&id); c.Err() == nil && id != a.ID {
		c.Fail(fmt.Errorf("faults: checkpoint activation id %d, manifest built %d", id, a.ID))
	}
	c.Bool(&a.deactivated)
	if c.Decoding() && a.deactivated {
		// The system-side effects of the repair are part of the other
		// subsystems' restored state; the undo closures must not run again.
		a.undo = nil
	}
	ckpt.Slice(c, &a.Chain.Stages, 1<<16, codeStage)
	ckpt.Slice(c, &a.Episodes, maxEpisodeLog, ckpt.Varint[sim.Time])
	ckpt.SortedMap(c, &a.flags, 1<<8, (*ckpt.Coder).String, func(c *ckpt.Coder, _ string, v *bool) { c.Bool(v) })
	now := in.cl.Sched.Now()
	ckpt.Slice(c, &a.timers, 1<<16, func(c *ckpt.Coder, t **timerRec) {
		if *t == nil {
			*t = new(timerRec)
		}
		rec := *t
		ckpt.Uvarint(c, &rec.armSeq)
		ckpt.Varint(c, &rec.at)
		c.String(&rec.role)
		ckpt.Varint(c, &rec.arg)
		switch {
		case !c.Decoding() || c.Err() != nil:
		case a.onTimer[rec.role] == nil:
			c.Fail(fmt.Errorf("faults: checkpoint timer role %q unknown to activation #%d", rec.role, a.ID))
		case rec.at < now:
			c.Fail(fmt.Errorf("faults: checkpoint timer %q of activation #%d at %v, before the restored clock %v", rec.role, a.ID, rec.at, now))
		}
	})
	ckpt.Slice(c, &a.hooks, 1<<16, func(c *ckpt.Coder, h *hookRec) {
		ckpt.Index(c, &h.id, in.cl.Bus.HookHorizon(), "hook id")
		c.String(&h.role)
		c.Bool(&h.rx)
		if c.Decoding() && c.Err() == nil && (h.rx && a.rxRoles[h.role] == nil || !h.rx && a.txRoles[h.role] == nil) {
			c.Fail(fmt.Errorf("faults: checkpoint hook role %q unknown to activation #%d", h.role, a.ID))
		}
	})
}

// Code implements ckpt.Snapshotter: the injector's arm counter, id
// horizon and every activation's runtime state in ledger order. Decoding
// runs on a reconstructed injector (the manifest re-ran, rebuilding the
// same ledger) whose scheduler and bus hold their restored clock and
// hook-id horizon, and before Bus.Rearm, so the re-armed slot chain
// queues behind the injector's same-instant timers, as it did originally.
func (in *Injector) Code(c *ckpt.Coder) error {
	if c.Decoding() {
		in.restoring = false
	}
	ckpt.Uvarint(c, &in.armSeq)
	id := in.nextID
	if c.Int(&id); c.Err() == nil && id != in.nextID {
		c.Fail(fmt.Errorf("faults: checkpoint id horizon %d, manifest built %d", id, in.nextID))
	}
	c.Count(len(in.ledger), "activations")
	for _, a := range in.ledger {
		if c.Err() != nil {
			break
		}
		in.code(c, a)
	}
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	type armEntry struct {
		a   *Activation
		rec *timerRec
	}
	var pend []armEntry
	for _, a := range in.ledger {
		for _, h := range a.hooks {
			if h.rx {
				in.cl.Bus.InstallRxFault(h.id, a.rxRoles[h.role])
			} else {
				in.cl.Bus.InstallTxFault(h.id, a.txRoles[h.role])
			}
		}
		for _, rec := range a.timers {
			pend = append(pend, armEntry{a: a, rec: rec})
		}
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].rec.armSeq < pend[j].rec.armSeq })
	for _, p := range pend {
		in.arm(p.a, p.rec)
	}
	return nil
}
