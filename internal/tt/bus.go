package tt

import (
	"fmt"

	"decos/internal/clock"
	"decos/internal/sim"
)

// Controller is the interface a node (a DECOS component's communication
// controller plus application layer) presents to the core network.
type Controller interface {
	// BuildFrame is called when one of the node's slots begins; it returns
	// the frame payload (at most Config.PayloadBytes; longer payloads are
	// truncated by the guardian, shorter ones are allowed).
	BuildFrame(round int64, slot int) []byte
	// OnRoundEnd is called after the final slot of each round, in node-id
	// order. Application jobs execute here.
	OnRoundEnd(round int64)
}

// TxFault perturbs a frame on the sender side / the shared medium. It may
// modify the frame in place (set Status, clear Payload, set CorruptBits).
// All receivers observe the perturbed frame.
type TxFault func(f *Frame)

// RxFault perturbs reception at one receiver. It receives the frame as
// transmitted and the status as seen so far, and returns the (possibly
// degraded) status. Receiver-side faults model inbound connector problems.
type RxFault func(receiver NodeID, f *Frame, status FrameStatus) FrameStatus

// Reception delivers a slot's broadcast frame to all nodes (the sender too)
// at once: statuses can differ per receiver; powered is false for ids that
// receive nothing. Slices are indexed by NodeID and, like f, reused.
type Reception func(f *Frame, perReceiver []FrameStatus, powered []bool)

// SlotObserver is called once per slot after delivery, with the per-receiver
// statuses indexed by NodeID (entries for unattached ids are meaningless).
// The diagnostic layer and tests attach here. Both the frame and the status
// slice are reused across slots: they are valid only for the duration of the
// callback and must be copied if retained.
type SlotObserver func(f *Frame, perReceiver []FrameStatus)

type txHook struct {
	id int
	fn TxFault
}

type rxHook struct {
	id int
	fn RxFault
}

// Bus is the shared TDMA broadcast medium of one cluster, together with the
// slot guardian and the membership service.
type Bus struct {
	Cfg   Config
	Sched *sim.Scheduler

	// Clocks, when non-nil, is resynchronized once per round; a sender that
	// is out of sync produces timing-failed frames until readmitted.
	Clocks *clock.Cluster

	// Dense per-node tables indexed by NodeID; nodes[n] == nil means
	// unattached.
	nodes      []Controller
	alive      []bool
	babbling   []bool
	membership []*Membership

	nodeOrder []NodeID // attached nodes, ascending
	babblers  int      // number of nodes currently babbling

	txFaults   []txHook // insertion (== id) order
	rxFaults   []rxHook
	reception  Reception
	observers  []SlotObserver
	roundHooks []func(round int64)
	nextHookID int

	round int64

	// GuardianEnabled controls slot enforcement. With the guardian off
	// (ablation A3 territory), a babbling node corrupts every slot.
	GuardianEnabled bool
	// GuardianBlocks counts transmission attempts outside the sender's slot
	// that the guardian suppressed.
	GuardianBlocks int

	// statusCounts tallies transmitted frames by FrameStatus (as seen on
	// the medium, before receiver-side degradation) — the bus's own
	// telemetry, maintained as plain increments on the slot path.
	statusCounts [4]int64

	// Per-slot scratch, reused every slot (see SlotObserver).
	frame  Frame
	per    []FrameStatus
	slotFn sim.BoundFn

	running bool
}

// NewBus creates a bus for the given configuration. It panics on an invalid
// configuration: cluster configs are static and checked at build time.
func NewBus(cfg Config, sched *sim.Scheduler) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Bus{
		Cfg:             cfg,
		Sched:           sched,
		GuardianEnabled: true,
	}
	b.slotFn = func(round, slot int64) { b.fireSlot(round, int(slot)) }
	return b
}

// grow extends the dense node tables to cover id n.
func (b *Bus) grow(n NodeID) {
	for len(b.nodes) <= int(n) {
		b.nodes = append(b.nodes, nil)
		b.alive = append(b.alive, false)
		b.babbling = append(b.babbling, false)
		b.membership = append(b.membership, nil)
		b.per = append(b.per, FrameOK)
	}
}

// attached reports whether node n has a controller.
func (b *Bus) attached(n NodeID) bool {
	return n >= 0 && int(n) < len(b.nodes) && b.nodes[n] != nil
}

// Attach registers the controller for node n. All nodes must be attached
// before Start.
func (b *Bus) Attach(n NodeID, c Controller) {
	if b.running {
		panic("tt: Attach after Start")
	}
	if n < 0 {
		panic(fmt.Sprintf("tt: invalid node id %d", n))
	}
	b.grow(n)
	if b.nodes[n] != nil {
		panic(fmt.Sprintf("tt: duplicate controller for node %d", n))
	}
	b.nodes[n] = c
	b.nodeOrder = append(b.nodeOrder, n)
	for i := len(b.nodeOrder) - 1; i > 0 && b.nodeOrder[i] < b.nodeOrder[i-1]; i-- {
		b.nodeOrder[i], b.nodeOrder[i-1] = b.nodeOrder[i-1], b.nodeOrder[i]
	}
	b.alive[n] = true
	b.membership[n] = NewMembership(b.Cfg.Nodes())
}

// SetAlive powers a node on or off. A powered-off node omits all its frames
// (fail-silent), the failure mode a correct architecture converts arbitrary
// component failures into at the interface. The node must be attached:
// powering phantom nodes is always a harness bug, so it panics.
func (b *Bus) SetAlive(n NodeID, alive bool) {
	if !b.attached(n) {
		panic(fmt.Sprintf("tt: SetAlive on unattached node %d", n))
	}
	b.alive[n] = alive
}

// Alive reports whether node n is powered. Unattached ids report false.
func (b *Bus) Alive(n NodeID) bool {
	return n >= 0 && int(n) < len(b.alive) && b.alive[n]
}

// SetBabbling marks a node as a babbling idiot: it attempts to transmit in
// every slot. With the guardian enabled the attempts are blocked and
// counted; with it disabled they corrupt the legitimate sender's frame.
// Like SetAlive, the node must be attached.
func (b *Bus) SetBabbling(n NodeID, babbling bool) {
	if !b.attached(n) {
		panic(fmt.Sprintf("tt: SetBabbling on unattached node %d", n))
	}
	if b.babbling[n] != babbling {
		if babbling {
			b.babblers++
		} else {
			b.babblers--
		}
	}
	b.babbling[n] = babbling
}

// AddTxFault installs a sender-side fault hook and returns a handle for
// removal.
func (b *Bus) AddTxFault(f TxFault) int {
	id := b.nextHookID
	b.nextHookID++
	b.txFaults = append(b.txFaults, txHook{id: id, fn: f})
	return id
}

// AddRxFault installs a receiver-side fault hook and returns a handle.
func (b *Bus) AddRxFault(f RxFault) int {
	id := b.nextHookID
	b.nextHookID++
	b.rxFaults = append(b.rxFaults, rxHook{id: id, fn: f})
	return id
}

// RemoveFault uninstalls a fault hook by handle. Unknown handles are
// ignored.
func (b *Bus) RemoveFault(id int) {
	for i, h := range b.txFaults {
		if h.id == id {
			b.txFaults = append(b.txFaults[:i], b.txFaults[i+1:]...)
			return
		}
	}
	for i, h := range b.rxFaults {
		if h.id == id {
			b.rxFaults = append(b.rxFaults[:i], b.rxFaults[i+1:]...)
			return
		}
	}
}

// SetReception installs the delivery called once per slot, after every
// node's rx faults and membership update, before the slot observers.
func (b *Bus) SetReception(r Reception) { b.reception = r }

// Observe installs a slot observer.
func (b *Bus) Observe(o SlotObserver) { b.observers = append(b.observers, o) }

// OnRound installs a callback fired after every round completes (after all
// controllers' OnRoundEnd), regardless of node liveness.
func (b *Bus) OnRound(f func(round int64)) { b.roundHooks = append(b.roundHooks, f) }

// Membership returns node n's membership view (nil for unattached ids).
func (b *Bus) Membership(n NodeID) *Membership {
	if n < 0 || int(n) >= len(b.membership) {
		return nil
	}
	return b.membership[n]
}

// Round returns the index of the round currently in progress (or about to
// start).
func (b *Bus) Round() int64 { return b.round }

// Start schedules the first slot. The bus then self-schedules forever; run
// the scheduler with RunUntil to bound the simulation.
func (b *Bus) Start() {
	if b.running {
		panic("tt: Start called twice")
	}
	for _, n := range b.Cfg.Nodes() {
		if !b.attached(n) {
			panic(fmt.Sprintf("tt: schedule assigns slots to unattached node %d", n))
		}
	}
	b.running = true
	// A static event name: slot scheduling is the simulator's hottest
	// path and the coordinates are recoverable from the time.
	b.Sched.AtFunc(b.Cfg.SlotStart(0, 0), "tt.slot", b.slotFn, 0, 0)
}

// fireSlot runs the slot at (round, slot), then as many consecutive slots as
// the scheduler lets it run inline: when no foreign event is due before the
// next slot's start time, going back through the event queue would be a
// no-op, so the bus advances the clock directly and keeps going.
func (b *Bus) fireSlot(round int64, slot int) {
	for {
		b.runSlot(round, slot)
		if slot+1 < len(b.Cfg.Slots) {
			slot++
		} else {
			b.endRound(round)
			round++
			slot = 0
		}
		at := b.Cfg.SlotStart(round, slot)
		if !b.Sched.InlineTo(at) {
			b.Sched.AtFunc(at, "tt.slot", b.slotFn, round, int64(slot))
			return
		}
	}
}

func (b *Bus) runSlot(round int64, slot int) {
	b.round = round
	sender := b.Cfg.Slots[slot]
	f := &b.frame
	*f = Frame{
		Round:  round,
		Slot:   slot,
		Sender: sender,
		At:     b.Sched.Now(),
		Status: FrameOK,
	}

	// Sender side.
	switch {
	case sender == NoNode:
		f.Status = FrameOmitted
	case !b.alive[sender]:
		f.Status = FrameOmitted
	case b.Clocks != nil && int(sender) < len(b.Clocks.Oscillators) && !b.Clocks.InSync(int(sender)):
		// A sender that lost clock synchronization transmits outside its
		// receive window: receivers classify the frame as a timing failure.
		f.Status = FrameTiming
		f.Payload = b.nodes[sender].BuildFrame(round, slot)
	default:
		f.Payload = b.nodes[sender].BuildFrame(round, slot)
		if len(f.Payload) > b.Cfg.PayloadBytes {
			f.Payload = f.Payload[:b.Cfg.PayloadBytes]
		}
	}

	// Babbling idiots attempt to transmit in this (foreign) slot.
	if b.babblers > 0 {
		for _, n := range b.nodeOrder {
			if !b.babbling[n] || n == sender || !b.alive[n] {
				continue
			}
			if b.GuardianEnabled {
				b.GuardianBlocks++
				continue
			}
			// Without slot enforcement the medium sees two simultaneous
			// transmissions: the legitimate frame is destroyed.
			if f.Status == FrameOK {
				f.Status = FrameCorrupted
				f.CorruptBits += 8 * len(f.Payload)
			}
		}
	}

	// Sender-side / medium fault hooks, in insertion order.
	for _, h := range b.txFaults {
		h.fn(f)
	}

	// Reception: every attached node's status, then one delivery.
	per := b.per
	for _, n := range b.nodeOrder {
		st := f.Status
		for _, h := range b.rxFaults {
			st = h.fn(n, f, st)
		}
		per[n] = st
		if b.alive[n] {
			b.membership[n].Record(f.Sender, round, st)
		}
	}
	if b.reception != nil {
		b.reception(f, per, b.alive)
	}
	for _, o := range b.observers {
		o(f, per)
	}

	if int(f.Status) < len(b.statusCounts) {
		b.statusCounts[f.Status]++
	}
}

// FrameCounts are the bus's lifetime frame tallies by transmitted status,
// plus the guardian's suppression count.
type FrameCounts struct {
	Total, OK, Omitted, Corrupted, Timing int64
	GuardianBlocks                        int64
}

// FrameCounts returns the frame tallies. Not safe for use concurrently
// with the (single-threaded) simulation loop.
func (b *Bus) FrameCounts() FrameCounts {
	c := FrameCounts{
		OK:             b.statusCounts[FrameOK],
		Omitted:        b.statusCounts[FrameOmitted],
		Corrupted:      b.statusCounts[FrameCorrupted],
		Timing:         b.statusCounts[FrameTiming],
		GuardianBlocks: int64(b.GuardianBlocks),
	}
	c.Total = c.OK + c.Omitted + c.Corrupted + c.Timing
	return c
}

func (b *Bus) endRound(round int64) {
	if b.Clocks != nil {
		b.Clocks.Resync(b.Sched.Now())
	}
	for _, n := range b.nodeOrder {
		if b.alive[n] {
			b.nodes[n].OnRoundEnd(round)
		}
	}
	for _, f := range b.roundHooks {
		f(round)
	}
}
