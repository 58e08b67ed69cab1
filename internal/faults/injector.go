package faults

import (
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Activation is one injected fault: the ground truth the maintenance
// auditor compares diagnostic verdicts against. The diagnostic subsystem
// never reads the ledger.
type Activation struct {
	ID          int
	Class       core.FaultClass
	Persistence core.Persistence
	// Culprit is the FRU a correct maintenance action would address. For
	// component-external faults there is no culprit FRU (replacing
	// anything would be a no-fault-found removal); Culprit is the zero FRU
	// with Component == -1 in that case.
	Culprit core.FRU
	// Affected lists the FRUs whose service the fault disturbs.
	Affected []core.FRU
	Start    sim.Time
	// End closes the activation window; 0 = open-ended (permanent).
	End    sim.Time
	Detail string
	// Chain is the recorded fault-error-failure trace (experiment E2).
	Chain core.Chain
	// Episodes records individual manifestation instants (transient
	// episodes, EMI hits), capped to keep long campaigns bounded.
	Episodes []sim.Time

	deactivated bool
	undo        []func()

	// Phase tracking. Every fault primitive expresses its temporal
	// behaviour as named roles: timer roles (what to do when a scheduled
	// instant arrives) and hook roles (the frame perturbation closures
	// installed on the bus). The pending timers and installed hooks are
	// the activation's phase — exactly what a checkpoint must carry and a
	// restore must re-arm, while the role handlers themselves are
	// reconstructed by re-running the manifest.
	onTimer map[string]func(arg int64)
	txRoles map[string]tt.TxFault
	rxRoles map[string]tt.RxFault
	timers  []*timerRec
	hooks   []hookRec
	flags   map[string]bool
}

// timerRec is one pending (not yet fired) scheduled instant of an
// activation. armSeq is a global arm-order counter: re-arming in armSeq
// order reproduces the scheduler's FIFO tie-break among same-time events.
type timerRec struct {
	armSeq uint64
	at     sim.Time
	role   string
	arg    int64
}

// hookRec is one installed bus fault hook of an activation. The id is the
// bus handle — hook ids order the filter composition, so restores
// reinstall under the original id.
type hookRec struct {
	id   int
	role string
	rx   bool
}

// handle registers the activation's handler for a timer role.
func (a *Activation) handle(role string, fn func(arg int64)) {
	if a.onTimer == nil {
		a.onTimer = make(map[string]func(int64))
	}
	a.onTimer[role] = fn
}

// txRole registers the activation's sender-side hook closure for a role.
func (a *Activation) txRole(role string, fn tt.TxFault) {
	if a.txRoles == nil {
		a.txRoles = make(map[string]tt.TxFault)
	}
	a.txRoles[role] = fn
}

// rxRole registers the activation's receiver-side hook closure for a role.
func (a *Activation) rxRole(role string, fn tt.RxFault) {
	if a.rxRoles == nil {
		a.rxRoles = make(map[string]tt.RxFault)
	}
	a.rxRoles[role] = fn
}

// flag reads a named phase flag (e.g. the SEU's one-shot latch).
func (a *Activation) flag(name string) bool { return a.flags[name] }

// setFlag writes a named phase flag.
func (a *Activation) setFlag(name string, v bool) {
	if a.flags == nil {
		a.flags = make(map[string]bool)
	}
	a.flags[name] = v
}

func (a *Activation) dropTimer(rec *timerRec) {
	for i, r := range a.timers {
		if r == rec {
			a.timers = append(a.timers[:i], a.timers[i+1:]...)
			return
		}
	}
}

// Active reports whether the fault is still present in the system (i.e.
// not repaired). Manifestation hooks check this, so a Deactivate models
// the physical effect of the correct repair.
func (a *Activation) Active() bool { return !a.deactivated }

// OnDeactivate registers cleanup run when the fault is repaired.
func (a *Activation) OnDeactivate(f func()) { a.undo = append(a.undo, f) }

// Deactivate removes the fault from the system — the effect of the
// maintenance action that actually addresses it (component swap, connector
// re-seat, configuration update, software update, transducer replacement).
// Idempotent.
func (a *Activation) Deactivate() {
	if a.deactivated {
		return
	}
	a.deactivated = true
	for _, f := range a.undo {
		f()
	}
	a.undo = nil
}

// NoCulprit marks activations without a replaceable culprit.
var NoCulprit = core.FRU{Component: -1}

// ActiveAt reports whether the activation window covers time t.
func (a *Activation) ActiveAt(t sim.Time) bool {
	if t < a.Start {
		return false
	}
	return a.End == 0 || t <= a.End
}

func (a *Activation) String() string {
	return fmt.Sprintf("#%d %s/%s %s [%v..%v] %s",
		a.ID, a.Class, a.Persistence, a.Culprit, a.Start, a.End, a.Detail)
}

const maxEpisodeLog = 10_000

func (a *Activation) logEpisode(t sim.Time) {
	if len(a.Episodes) < maxEpisodeLog {
		a.Episodes = append(a.Episodes, t)
	}
}

// Injector drives fault manifestations on one cluster and keeps the
// ground-truth ledger.
type Injector struct {
	cl     *component.Cluster
	rng    *sim.RNG
	ledger []*Activation
	nextID int

	// armSeq orders every timer arm across all activations.
	armSeq uint64
	// restoring suppresses manifest-time timer arming: during a restore
	// reconstruction the manifest re-registers every role handler, but the
	// checkpoint's pending-timer list is the authoritative phase.
	restoring bool
}

// NewInjector creates an injector for the cluster, drawing randomness from
// the cluster's dedicated "faults" stream.
func NewInjector(cl *component.Cluster) *Injector {
	return &Injector{cl: cl, rng: cl.Streams.Stream("faults")}
}

// Reset returns the injector to its just-built state for a new run on a
// reset cluster (component.Cluster.Reset, which drops the pending timers
// and fault hooks along with the scheduler's queue and the bus): no
// activation, no armed timer. The ledger starts as a new slice, so one
// taken before the reset keeps its contents.
func (in *Injector) Reset() {
	in.ledger, in.nextID, in.armSeq, in.restoring = nil, 0, 0, false
}

// SetReconstructing switches the injector into (or out of) restore-
// reconstruction mode. The engine enables it before re-running the fault
// manifest of a checkpointed run and disables it again after Restore has
// re-armed the checkpointed phase.
func (in *Injector) SetReconstructing(v bool) { in.restoring = v }

// timer schedules a tracked instant for the activation: the role's
// handler runs at the given time with arg, and until then the timer is
// part of the activation's checkpointable phase. During restore
// reconstruction the call is a no-op.
func (in *Injector) timer(a *Activation, role string, at sim.Time, arg int64) {
	if in.restoring {
		return
	}
	in.armSeq++
	rec := &timerRec{armSeq: in.armSeq, at: at, role: role, arg: arg}
	a.timers = append(a.timers, rec)
	in.arm(a, rec)
}

func (in *Injector) arm(a *Activation, rec *timerRec) {
	in.cl.Sched.At(rec.at, "fault."+rec.role, func() {
		a.dropTimer(rec)
		if fn := a.onTimer[rec.role]; fn != nil {
			fn(rec.arg)
		}
	})
}

// installTx installs the activation's tx hook for a role on the bus and
// tracks it; returns the bus handle.
func (in *Injector) installTx(a *Activation, role string) int {
	id := in.cl.Bus.AddTxFault(a.txRoles[role])
	a.hooks = append(a.hooks, hookRec{id: id, role: role})
	return id
}

// installRx installs the activation's rx hook for a role on the bus and
// tracks it.
func (in *Injector) installRx(a *Activation, role string) int {
	id := in.cl.Bus.AddRxFault(a.rxRoles[role])
	a.hooks = append(a.hooks, hookRec{id: id, role: role, rx: true})
	return id
}

// removeHookID uninstalls one tracked hook by bus handle.
func (in *Injector) removeHookID(a *Activation, id int) {
	in.cl.Bus.RemoveFault(id)
	for i, h := range a.hooks {
		if h.id == id {
			a.hooks = append(a.hooks[:i], a.hooks[i+1:]...)
			return
		}
	}
}

// removeRole uninstalls every tracked hook of the activation with the
// given role.
func (in *Injector) removeRole(a *Activation, role string) {
	kept := a.hooks[:0]
	for _, h := range a.hooks {
		if h.role == role {
			in.cl.Bus.RemoveFault(h.id)
		} else {
			kept = append(kept, h)
		}
	}
	a.hooks = kept
}

// Ledger returns all recorded activations in injection order. Later
// injections append to it; Reset starts a new one.
func (in *Injector) Ledger() []*Activation { return in.ledger }

// Cluster returns the cluster under injection.
func (in *Injector) Cluster() *component.Cluster { return in.cl }

func (in *Injector) record(a *Activation) *Activation {
	a.ID = in.nextID
	in.nextID++
	in.ledger = append(in.ledger, a)
	return a
}

// hardwareFRUsWithin returns the hardware FRUs of components within radius
// of (x, y).
func (in *Injector) hardwareFRUsWithin(x, y, radius float64) []core.FRU {
	var out []core.FRU
	probe := &component.Component{X: x, Y: y}
	for _, c := range in.cl.Components() {
		if c.DistanceTo(probe) <= radius {
			out = append(out, core.HardwareFRU(int(c.ID)))
		}
	}
	return out
}

// chainOutFault composes a new output filter after the job's existing one.
func chainOutFault(j *component.Instance, f component.OutFilter) {
	prev := j.OutFault
	j.OutFault = func(ch vnet.ChannelID, payload []byte, now sim.Time) ([]byte, bool) {
		if prev != nil {
			var ok bool
			payload, ok = prev(ch, payload, now)
			if !ok {
				return nil, false
			}
		}
		return f(ch, payload, now)
	}
}

// chainSensorFault composes a new sensor filter after the existing one.
func chainSensorFault(j *component.Instance, f component.SensorFilter) {
	prev := j.SensorFault
	j.SensorFault = func(name string, v float64, now sim.Time) float64 {
		if prev != nil {
			v = prev(name, v, now)
		}
		return f(name, v, now)
	}
}
