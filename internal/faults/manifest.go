package faults

import (
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// ---------------------------------------------------------------------------
// Component-external faults (Section IV-A.3)
// ---------------------------------------------------------------------------

// EMIBurst injects a massive transient disturbance: for dur after at, the
// frames of every component within radius of the epicenter (x, y) suffer
// multi-bit corruption — the Fig. 8 massive-transient pattern
// (simultaneous, spatially proximate, multiple bit flips).
func (in *Injector) EMIBurst(at sim.Time, x, y, radius float64, dur sim.Duration, bits int) *Activation {
	if dur <= 0 {
		dur = EMIBurstDuration
	}
	if bits <= 0 {
		bits = 4
	}
	affected := in.hardwareFRUsWithin(x, y, radius)
	a := in.record(&Activation{
		Class:       core.ComponentExternal,
		Persistence: core.Transient,
		Culprit:     NoCulprit,
		Affected:    affected,
		Start:       at,
		End:         at.Add(dur),
		Detail:      fmt.Sprintf("EMI burst at (%.1f,%.1f) r=%.1f", x, y, radius),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: NoCulprit,
		Detail: "electromagnetic interference (external)"})

	inside := make(map[tt.NodeID]bool)
	for _, f := range affected {
		inside[tt.NodeID(f.Component)] = true
	}
	a.txRole("emi", func(f *tt.Frame) {
		if !inside[f.Sender] {
			return
		}
		now := in.cl.Sched.Now()
		if f.Status == tt.FrameOK {
			f.Status = tt.FrameCorrupted
			appendFailure(&a.Chain, now, core.HardwareFRU(int(f.Sender)), "frame corrupted by EMI")
		}
		f.CorruptBits += bits
		a.logEpisode(now)
	})
	in.window(a, "emi", at, at.Add(dur))
	return a
}

// SEU injects a single-event upset: exactly one frame of the component is
// corrupted by a single bit flip shortly after at (cosmic radiation,
// Section IV-A.3a).
func (in *Injector) SEU(at sim.Time, comp tt.NodeID) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentExternal,
		Persistence: core.Transient,
		Culprit:     NoCulprit,
		Affected:    []core.FRU{fru},
		Start:       at,
		End:         at.Add(in.cl.Cfg.RoundDuration() * 2),
		Detail:      fmt.Sprintf("SEU on component %d", comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: NoCulprit,
		Detail: "single event upset (cosmic radiation)"})
	a.txRole("seu", func(f *tt.Frame) {
		if a.flag("done") || f.Sender != comp || f.Status != tt.FrameOK {
			return
		}
		a.setFlag("done", true)
		f.Status = tt.FrameCorrupted
		f.CorruptBits = 1
		now := in.cl.Sched.Now()
		appendFailure(&a.Chain, now, fru, "single-bit frame corruption")
		a.logEpisode(now)
		in.timer(a, "seu.off", now, 0)
	})
	in.window(a, "seu", at, 0)
	return a
}

// PowerDip injects a transient component outage from an external cause
// (supply-voltage dip): the component is silent for dur, then restarts.
// External faults "have no permanent effect on the functionality of the
// component — a restart with subsequent state synchronization is a typical
// strategy" (Section III-C); the time-triggered state semantics deliver the
// synchronization for free, since every state channel republishes each
// round.
func (in *Injector) PowerDip(comp tt.NodeID, at sim.Time, dur sim.Duration) *Activation {
	if dur <= 0 {
		dur = TransientOutage
	}
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentExternal,
		Persistence: core.Transient,
		Culprit:     NoCulprit,
		Affected:    []core.FRU{fru},
		Start:       at,
		End:         at.Add(dur),
		Detail:      fmt.Sprintf("supply voltage dip on component %d (%v)", comp, dur),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: NoCulprit,
		Detail: "external supply disturbance"})
	a.handle("powerdip.on", func(int64) {
		in.cl.Bus.SetAlive(comp, false)
		appendFailure(&a.Chain, at, fru, "transient outage (silence)")
		a.logEpisode(at)
	})
	a.handle("powerdip.off", func(int64) { in.cl.Bus.SetAlive(comp, true) })
	in.timer(a, "powerdip.on", at, 0)
	in.timer(a, "powerdip.off", a.End, 0)
	a.OnDeactivate(func() { in.cl.Bus.SetAlive(comp, true) })
	return a
}

// ---------------------------------------------------------------------------
// Component-borderline faults (Section IV-A.2)
// ---------------------------------------------------------------------------

// ConnectorTx injects an intermittent outbound connector fault: between
// start and end, each frame of the component is omitted with probability
// dropProb, at arbitrary instants — the Fig. 8 connector pattern (omissions
// on a channel, one component only, arbitrary times). end=0 leaves the
// fault in place until repair.
func (in *Injector) ConnectorTx(comp tt.NodeID, start, end sim.Time, dropProb float64) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentBorderline,
		Persistence: core.Intermittent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       start,
		End:         end,
		Detail:      fmt.Sprintf("tx connector fretting p=%.2f on component %d", dropProb, comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: start, FRU: fru,
		Detail: "connector fretting/corrosion (borderline)"})
	a.txRole("connector", func(f *tt.Frame) {
		if f.Sender != comp || f.Status != tt.FrameOK {
			return
		}
		if in.rng.Bool(dropProb) {
			f.Status = tt.FrameOmitted
			f.Payload = nil
			now := in.cl.Sched.Now()
			appendFailure(&a.Chain, now, fru, "frame omission (connector)")
			a.logEpisode(now)
		}
	})
	in.window(a, "connector", start, end)
	return a
}

// ConnectorRx injects an intermittent inbound connector fault at the
// component: it fails to receive frames (from all senders) with probability
// dropProb.
func (in *Injector) ConnectorRx(comp tt.NodeID, start, end sim.Time, dropProb float64) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentBorderline,
		Persistence: core.Intermittent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       start,
		End:         end,
		Detail:      fmt.Sprintf("rx connector fault p=%.2f on component %d", dropProb, comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: start, FRU: fru,
		Detail: "inbound connector fault (borderline)"})
	a.rxRole("connector.rx", func(rcv tt.NodeID, f *tt.Frame, st tt.FrameStatus) tt.FrameStatus {
		if rcv != comp || st != tt.FrameOK || f.Sender == comp {
			return st
		}
		if in.rng.Bool(dropProb) {
			a.logEpisode(in.cl.Sched.Now())
			return tt.FrameOmitted
		}
		return st
	})
	in.window(a, "connector.rx", start, end)
	return a
}

// ---------------------------------------------------------------------------
// Component-internal faults (Section IV-A.1)
// ---------------------------------------------------------------------------

// Wearout injects the paper's wearout process on a component: transient
// failure episodes whose rate grows exponentially after onset (the wearout
// indicator of Section III-E), plus an increasing deviation on the values
// produced by the component's jobs (Fig. 8: "increasing deviation from
// correct value, at the verge of becoming incorrect"). driftPerHour adds to
// every float payload produced on the component per hour since onset.
func (in *Injector) Wearout(comp tt.NodeID, acc WearoutAcceleration, driftPerHour float64) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentInternal,
		Persistence: core.Intermittent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       acc.Onset,
		Detail:      fmt.Sprintf("wearout (solder/PCB degradation) on component %d", comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: acc.Onset, FRU: fru,
		Detail: "accumulated incremental damage (wearout)"})

	// Rising-rate transient episodes.
	in.scheduleEpisodes(a, comp, acc, TransientOutage)

	// Increasing value deviation on everything the component produces.
	if driftPerHour != 0 {
		c := in.cl.Component(comp)
		for _, j := range c.Jobs {
			chainOutFault(a, j, func(ch vnet.ChannelID, payload []byte, now sim.Time) ([]byte, bool) {
				if now <= acc.Onset || len(payload) != 8 {
					return payload, true
				}
				dev := driftPerHour * now.Sub(acc.Onset).Hours()
				m := vnet.Message{Payload: payload}
				return vnet.FloatPayload(m.Float() + dev), true
			})
		}
	}
	return a
}

// IntermittentInternal injects a component-internal fault producing
// transient episodes at a constant rate that recur at the same location
// (solder crack, loose die bond) — distinguished from external transients
// by recurrence (α-count) rather than rate growth.
func (in *Injector) IntermittentInternal(comp tt.NodeID, start sim.Time, ratePerHour float64, end sim.Time) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentInternal,
		Persistence: core.Intermittent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       start,
		End:         end,
		Detail:      fmt.Sprintf("intermittent internal fault on component %d", comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: start, FRU: fru,
		Detail: "solder joint crack (internal, intermittent)"})
	in.scheduleEpisodes(a, comp, WearoutAcceleration{
		Onset:           start,
		BaseRatePerHour: ratePerHour,
		MaxFactor:       1,
		Tau:             0,
	}, TransientOutage)
	return a
}

// scheduleEpisodes drives a self-rescheduling episode process: at each
// episode the component's frames are corrupted for outage duration; the
// next episode follows an exponential inter-arrival at the (possibly
// accelerating) rate. Episodes stop when the activation window closes.
// Overlapping episodes install independent hooks; each off-timer carries
// its episode's bus handle as the timer argument.
func (in *Injector) scheduleEpisodes(a *Activation, comp tt.NodeID, acc WearoutAcceleration, outage sim.Duration) {
	a.txRole("episode", func(f *tt.Frame) {
		if f.Sender != comp || f.Status != tt.FrameOK {
			return
		}
		f.Status = tt.FrameCorrupted
		f.CorruptBits += 2
	})
	schedule := func(from sim.Time) {
		rate := acc.RatePerHour(from)
		if rate <= 0 {
			return
		}
		gap := sim.DurationFromHours(in.rng.Exp(rate))
		in.timer(a, "episode", from.Add(gap), 0)
	}
	a.handle("episode", func(int64) {
		now := in.cl.Sched.Now()
		if a.End != 0 && now > a.End {
			return
		}
		a.logEpisode(now)
		fru := core.HardwareFRU(int(comp))
		appendFailure(&a.Chain, now, fru, "transient outage episode")
		hookID := in.installTx(a, "episode")
		in.timer(a, "episode.off", now.Add(sim.Duration(1+in.rng.Intn(int(outage)))), int64(hookID))
		schedule(now)
	})
	a.handle("episode.off", func(arg int64) { in.removeHookID(a, int(arg)) })
	a.handle("episode.first", func(int64) { schedule(in.cl.Sched.Now()) })
	in.timer(a, "episode.first", a.Start, 0)
}

// PermanentFailSilent kills the component at time at: it omits all frames
// until repaired (the failure mode a correct architecture converts internal
// faults into).
func (in *Injector) PermanentFailSilent(comp tt.NodeID, at sim.Time) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentInternal,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("permanent fail-silent on component %d", comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "permanent hardware defect (e.g. PCB crack)"})
	a.handle("permanent", func(int64) {
		in.cl.Bus.SetAlive(comp, false)
		appendFailure(&a.Chain, at, fru, "continuous frame omission")
	})
	in.timer(a, "permanent", at, 0)
	// Replacing the component brings a working unit back online.
	a.OnDeactivate(func() { in.cl.Bus.SetAlive(comp, true) })
	return a
}

// PermanentBabbling turns the component into a babbling idiot at time at:
// it transmits garbage in its own slots and attempts to transmit in foreign
// slots (contained by the guardian).
func (in *Injector) PermanentBabbling(comp tt.NodeID, at sim.Time) *Activation {
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentInternal,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("babbling idiot on component %d", comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "permanent controller defect (babbling idiot)"})
	bus := in.cl.Bus
	a.txRole("babble", func(f *tt.Frame) {
		if f.Sender != comp || f.Status != tt.FrameOK {
			return
		}
		f.Status = tt.FrameCorrupted
		f.CorruptBits += 16
	})
	a.handle("babbling", func(int64) {
		bus.SetBabbling(comp, true)
		in.installTx(a, "babble")
		appendFailure(&a.Chain, at, fru, "garbage transmission in own slot")
	})
	in.timer(a, "babbling", at, 0)
	a.OnDeactivate(func() { bus.SetBabbling(comp, false) })
	return a
}

// DefectiveQuartz degrades the component's oscillator at time at; the
// component subsequently loses clock synchronization and its frames violate
// their receive windows (timing failures). Requires the cluster to run with
// a clock ensemble.
func (in *Injector) DefectiveQuartz(comp tt.NodeID, at sim.Time, driftPPM float64) *Activation {
	if in.cl.Bus.Clocks == nil {
		panic("faults: DefectiveQuartz requires Bus.Clocks")
	}
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentInternal,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("defective quartz (%.0f ppm) on component %d", driftPPM, comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "quartz damage (thermal cycling / shock)"})
	osc := in.cl.Bus.Clocks.Oscillators[int(comp)]
	oldDrift := osc.DriftPPM
	a.handle("quartz", func(int64) {
		osc.DriftPPM = driftPPM
		appendFailure(&a.Chain, at, fru, "loss of clock synchronization")
	})
	in.timer(a, "quartz", at, 0)
	// A replacement component arrives with a healthy oscillator and is
	// readmitted to the synchronized ensemble.
	a.OnDeactivate(func() {
		osc.DriftPPM = oldDrift
		in.cl.Bus.Clocks.Readmit(in.cl.Sched.Now(), int(comp))
	})
	return a
}

// TransientQuartz models a temperature-induced oscillator excursion
// (thermal cycling, Section IV-A.1a): the component's clock drifts out
// of spec at time at and returns to nominal after dur, when the
// ensemble readmits it. Unlike DefectiveQuartz the hardware is healthy —
// the drift is an external stress, so there is no culprit FRU and
// replacing the component would be a no-fault-found removal. Requires
// the cluster to run with a clock ensemble.
func (in *Injector) TransientQuartz(comp tt.NodeID, at sim.Time, dur sim.Duration, driftPPM float64) *Activation {
	if in.cl.Bus.Clocks == nil {
		panic("faults: TransientQuartz requires Bus.Clocks")
	}
	if dur <= 0 {
		dur = TransientOutage
	}
	fru := core.HardwareFRU(int(comp))
	a := in.record(&Activation{
		Class:       core.ComponentExternal,
		Persistence: core.Transient,
		Culprit:     NoCulprit,
		Affected:    []core.FRU{fru},
		Start:       at,
		End:         at.Add(dur),
		Detail:      fmt.Sprintf("thermal oscillator excursion (%.0f ppm, %v) on component %d", driftPPM, dur, comp),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "temperature excursion degrades oscillator frequency"})
	osc := in.cl.Bus.Clocks.Oscillators[int(comp)]
	oldDrift := osc.DriftPPM
	a.handle("quartz-on", func(int64) {
		osc.DriftPPM = driftPPM
		appendFailure(&a.Chain, at, fru, "loss of clock synchronization")
	})
	a.handle("quartz-off", func(int64) {
		osc.DriftPPM = oldDrift
		in.cl.Bus.Clocks.Readmit(in.cl.Sched.Now(), int(comp))
	})
	in.timer(a, "quartz-on", at, 0)
	in.timer(a, "quartz-off", at.Add(dur), 0)
	// An early repair (component swap) also restores nominal drift; the
	// readmission models the replacement joining the ensemble.
	a.OnDeactivate(func() {
		osc.DriftPPM = oldDrift
		in.cl.Bus.Clocks.Readmit(in.cl.Sched.Now(), int(comp))
	})
	return a
}

// ---------------------------------------------------------------------------
// Job-level faults (Section III-D, IV-B)
// ---------------------------------------------------------------------------

// MisconfigureQueue injects a job-borderline configuration fault: the
// receive queue of the job's port on channel ch is dimensioned to cap,
// which is too small for the actual (correct!) traffic — messages are lost
// through queue overflow although every job behaves to spec.
func (in *Injector) MisconfigureQueue(j *component.Instance, ch vnet.ChannelID, cap int) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobBorderline,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       0,
		Detail:      fmt.Sprintf("receive queue of %s:%d misdimensioned to %d", j, ch, cap),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: 0, FRU: fru,
		Detail: "virtual-network configuration derived from wrong traffic assumptions"})
	p := j.InPort(ch)
	if p == nil {
		panic(fmt.Sprintf("faults: job %s has no port on channel %d", j, ch))
	}
	oldCap := p.Capacity
	p.Capacity = cap
	// A configuration update restores the correctly dimensioned queue.
	a.OnDeactivate(func() { p.Capacity = oldCap })
	return a
}

// Bohrbug injects a deterministic software design fault: whenever the
// input-dependent trigger holds, the job publishes badValue instead of the
// correct value on channel ch. Bohrbugs are repeatable and identifiable
// during testing (Gray, Section IV-B.1a).
func (in *Injector) Bohrbug(j *component.Instance, ch vnet.ChannelID, trigger func(correct float64, now sim.Time) bool, badValue float64) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobInherentSoftware,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       0,
		Detail:      fmt.Sprintf("Bohrbug in %s on channel %d", j, ch),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: 0, FRU: fru,
		Detail: "deterministic software design fault (Bohrbug)"})
	chainOutFault(a, j, func(c vnet.ChannelID, payload []byte, now sim.Time) ([]byte, bool) {
		if c != ch || len(payload) != 8 {
			return payload, true
		}
		v := vnet.Message{Payload: payload}.Float()
		if trigger(v, now) {
			a.logEpisode(now)
			appendFailure(&a.Chain, now, fru, "out-of-spec output value")
			return vnet.FloatPayload(badValue), true
		}
		return payload, true
	})
	return a
}

// Heisenbug injects a non-deterministic software design fault: with
// probability prob per send, the job's output on ch is replaced by badValue
// (or omitted when omit is true). Heisenbugs evade testing and surface as
// transient failures in the field.
func (in *Injector) Heisenbug(j *component.Instance, ch vnet.ChannelID, prob float64, badValue float64, omit bool) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobInherentSoftware,
		Persistence: core.Intermittent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       0,
		Detail:      fmt.Sprintf("Heisenbug in %s on channel %d (p=%.3f)", j, ch, prob),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: 0, FRU: fru,
		Detail: "non-deterministic software design fault (Heisenbug)"})
	chainOutFault(a, j, func(c vnet.ChannelID, payload []byte, now sim.Time) ([]byte, bool) {
		if c != ch || !in.rng.Bool(prob) {
			return payload, true
		}
		a.logEpisode(now)
		appendFailure(&a.Chain, now, fru, "sporadic output failure")
		if omit {
			return nil, false
		}
		return vnet.FloatPayload(badValue), true
	})
	return a
}

// JobCrash halts the job at time at (software fault leading to partition
// halt). The encapsulation service confines the damage to the job.
func (in *Injector) JobCrash(j *component.Instance, at sim.Time) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobInherentSoftware,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("crash of job %s", j),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "software design fault causing partition halt"})
	a.handle("jobcrash", func(int64) {
		j.Halted = true
		appendFailure(&a.Chain, at, fru, "job silent (stale port state)")
	})
	in.timer(a, "jobcrash", at, 0)
	// A software update restarts the job with the corrected version.
	a.OnDeactivate(func() { j.Halted = false })
	return a
}

// SensorStuck injects a transducer fault: from at on, the job's sensor
// reads the stuck value regardless of the physical signal.
func (in *Injector) SensorStuck(j *component.Instance, at sim.Time, stuck float64) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobInherentSensor,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("sensor stuck at %.2f for %s", stuck, j),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "transducer defect (stuck-at)"})
	chainSensorFault(a, j, func(name string, v float64, now sim.Time) float64 {
		if now < at {
			return v
		}
		return stuck
	})
	return a
}

// SensorDrift injects a drifting transducer: the reading deviates from the
// physical value by driftPerHour × hours since at.
func (in *Injector) SensorDrift(j *component.Instance, at sim.Time, driftPerHour float64) *Activation {
	fru := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
	a := in.record(&Activation{
		Class:       core.JobInherentSensor,
		Persistence: core.Permanent,
		Culprit:     fru,
		Affected:    []core.FRU{fru},
		Start:       at,
		Detail:      fmt.Sprintf("sensor drift %.2f/h for %s", driftPerHour, j),
	})
	a.Chain.Append(core.Stage{Kind: core.StageFault, At: at, FRU: fru,
		Detail: "transducer degradation (drift)"})
	chainSensorFault(a, j, func(name string, v float64, now sim.Time) float64 {
		if now < at {
			return v
		}
		return v + driftPerHour*now.Sub(at).Hours()
	})
	return a
}

// appendFailure adds a failure stage, capping chain growth for long-running
// intermittents.
func appendFailure(c *core.Chain, at sim.Time, fru core.FRU, detail string) {
	if len(c.Stages) >= 64 {
		return
	}
	c.Append(core.Stage{Kind: core.StageFailure, At: at, FRU: fru, Detail: detail})
}
