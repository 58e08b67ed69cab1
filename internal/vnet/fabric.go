package vnet

import (
	"cmp"
	"fmt"
	"slices"

	"decos/internal/sim"
	"decos/internal/tt"
)

// InPort is a subscriber's receive port on one channel. The port keeps a
// bounded queue (event semantics) or just the latest state (state
// semantics follows from capacity 1 with overwrite), plus the observation
// statistics the symptom detectors of the diagnostic subsystem read.
type InPort struct {
	Channel ChannelID
	Node    tt.NodeID
	// Capacity bounds the receive queue; incoming messages beyond it are
	// dropped and counted as overflows. Capacity <= 0 means unbounded.
	Capacity int
	// sealedCap is Capacity as the fabric was sealed with; Reset
	// restores it.
	sealedCap int
	// Overwrite makes the port keep only the newest message (state port).
	Overwrite bool

	queue []Message
	// arena holds an event port's payloads, appended in arrival order:
	// those of the queued messages, plus received and dropped ones until
	// the next reset or compaction (see own). queued is the byte count of
	// the queued payloads.
	arena  []byte
	queued int

	Stats PortStats
}

// PortStats are the LIF-visible observations of one receive port.
type PortStats struct {
	Received     int // messages delivered correctly
	CRCFailures  int // messages received with an invalid CRC (value failures)
	FrameMisses  int // producer frames omitted / timing-failed while subscribed
	Overflows    int // messages dropped because the receive queue was full
	SeqGaps      int // sequence discontinuities (lost messages detected)
	LastSeq      uint32
	haveSeq      bool
	LastArrival  sim.Time
	LastValue    []byte
	LastWasValid bool
}

// Receive pops the oldest queued message. ok is false when the queue is
// empty. On an event port the payload lives in the port's arena, so like
// Peek's it is valid only until the next delivery to this port; copy it
// to retain it.
func (p *InPort) Receive() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	m := p.queue[0]
	// Shift instead of reslicing so the queue's backing array is reused.
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = Message{}
	p.queue = p.queue[:n]
	if !p.Overwrite {
		p.queued -= len(m.Payload)
	}
	return m, true
}

// Peek returns the newest message without consuming it. Its payload is
// only valid until the next delivery to this port; copy it to retain it
// across rounds.
func (p *InPort) Peek() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	return p.queue[len(p.queue)-1], true
}

// QueueLen returns the number of queued messages.
func (p *InPort) QueueLen() int { return len(p.queue) }

func (p *InPort) deliver(m Message, crcValid bool, now sim.Time) {
	if !crcValid {
		p.Stats.CRCFailures++
		p.Stats.LastWasValid = false
		return
	}
	// The decoded payload aliases the frame buffer; own it before
	// retaining (queue and Stats keep references past the slot). A state
	// port recycles the buffer of the value it is about to displace — by
	// the time this delivery returns, nothing references it (Stats is
	// repointed below, and Peek'd payloads are documented as transient).
	// An event port copies into its arena.
	if p.Overwrite {
		var buf []byte
		if len(p.queue) == 1 {
			buf = p.queue[0].Payload[:0]
		}
		m.Payload = append(buf, m.Payload...)
	} else {
		m.Payload = p.own(m.Payload)
	}
	if p.Stats.haveSeq && m.Seq != p.Stats.LastSeq+1 && m.Seq > p.Stats.LastSeq {
		p.Stats.SeqGaps++
	}
	p.Stats.LastSeq = m.Seq
	p.Stats.haveSeq = true
	p.Stats.Received++
	p.Stats.LastArrival = now
	p.Stats.LastValue = m.Payload
	p.Stats.LastWasValid = true
	if p.Overwrite {
		p.queue = p.queue[:0]
		p.queue = append(p.queue, m)
		return
	}
	if p.Capacity > 0 && len(p.queue) >= p.Capacity {
		p.Stats.Overflows++
		return
	}
	p.queue = append(p.queue, m)
	p.queued += len(m.Payload)
}

// own copies an event payload to the end of the port's arena and returns
// the copy, capped so an append to it cannot reach the next payload. The
// arena is emptied when the queue is, and once the queued payloads are
// under half of it, they are moved down to its front, in queue order;
// both happen only here, so every payload a port has handed out stays
// intact until its next delivery. A port that is never drained thus
// keeps at most twice its queued bytes plus one payload.
//
// The compaction relies on the queued payloads lying in queue order at
// ascending arena offsets (a payload appended before the arena last grew
// sits at the same offset of the array it outgrew), so each one's new
// place never overlaps a later one's bytes.
func (p *InPort) own(payload []byte) []byte {
	if len(p.queue) == 0 {
		p.arena = p.arena[:0]
	} else if len(p.arena) > 2*p.queued {
		n := 0
		for i := range p.queue {
			q := &p.queue[i]
			k := copy(p.arena[n:], q.Payload)
			q.Payload = p.arena[n : n+k : n+k]
			n += k
		}
		p.arena = p.arena[:n]
	}
	off := len(p.arena)
	p.arena = append(p.arena, payload...)
	return p.arena[off:len(p.arena):len(p.arena)]
}

// reset empties the port and zeroes its statistics, restoring its sealed
// capacity; the queue and arena keep their storage.
func (p *InPort) reset() {
	clear(p.queue)
	p.queue, p.arena, p.queued = p.queue[:0], p.arena[:0], 0
	p.Capacity = p.sealedCap
	p.Stats = PortStats{}
}

// subscription is one channel's subscribed ports, in subscription order.
type subscription struct {
	ch    ChannelID
	ports []*InPort
}

// segment is one network's byte range within a node's frame payload, with
// the route table Seal resolves for it: every channel the network carries
// from that node, with the channel's subscribed ports.
type segment struct {
	ep     *Endpoint
	offset int
	length int
	routes []subscription
}

// route returns the ports subscribed to ch and whether the segment's
// network carries ch from this sender at all.
func (s *segment) route(ch ChannelID) ([]*InPort, bool) {
	for _, r := range s.routes {
		if r.ch == ch {
			return r.ports, true
		}
	}
	return nil, false
}

// sender is one node's frame layout plus its reused frame buffer: frames
// are fully consumed within their slot event, so the buffer's contents are
// dead by the time the node builds its next frame.
type sender struct {
	segs []segment
	buf  []byte
}

// Fabric wires a set of virtual networks onto a time-triggered cluster: it
// computes the per-node frame layout, packs outbound segments into frames
// and dispatches received segments to subscriber ports.
type Fabric struct {
	cfg      tt.Config
	networks []*Network
	// subs is sorted by channel id.
	subs []subscription
	// senders is indexed by NodeID; Seal fills it.
	senders []sender
	// corruptSeed makes bit-flip placement for a corrupted frame a pure
	// function of the frame's coordinates, so every receiver of one
	// corrupted broadcast observes the same damaged bytes.
	corruptSeed uint64
	// damaged holds the current slot's frame after the bit flips, for the
	// receivers that got it corrupted.
	damaged []byte

	// DecodeErrors counts, per receiver that consumed it, the undecodable
	// records of a frame: truncated segment tails and records claiming a
	// channel the sender does not produce.
	DecodeErrors int
	sealed       bool
}

// NewFabric creates a fabric for the given core-network configuration. The
// rng seeds bit-corruption placement for corrupted frames.
func NewFabric(cfg tt.Config, rng *sim.RNG) *Fabric {
	return &Fabric{cfg: cfg, corruptSeed: rng.Uint64()}
}

// AddNetwork registers a virtual network. All networks must be added before
// Seal.
func (f *Fabric) AddNetwork(n *Network) {
	if f.sealed {
		panic("vnet: AddNetwork after Seal")
	}
	f.networks = append(f.networks, n)
}

// Subscribe attaches an in-port at the given node to a channel. The channel
// must exist on one of the fabric's networks, and all subscriptions must be
// made before Seal.
func (f *Fabric) Subscribe(node tt.NodeID, ch ChannelID, capacity int, overwrite bool) *InPort {
	if f.sealed {
		panic("vnet: Subscribe after Seal")
	}
	if f.findChannel(ch) == nil {
		panic(fmt.Sprintf("vnet: subscribe to unknown channel %d", ch))
	}
	p := &InPort{Channel: ch, Node: node, Capacity: capacity, Overwrite: overwrite}
	i, ok := f.subIndex(ch)
	if !ok {
		f.subs = slices.Insert(f.subs, i, subscription{ch: ch})
	}
	f.subs[i].ports = append(f.subs[i].ports, p)
	return p
}

// subIndex returns the position of ch in the sorted subs slice and whether
// it has subscribers.
func (f *Fabric) subIndex(ch ChannelID) (int, bool) {
	return slices.BinarySearchFunc(f.subs, ch, func(s subscription, ch ChannelID) int {
		return cmp.Compare(s.ch, ch)
	})
}

func (f *Fabric) findChannel(ch ChannelID) *Network {
	for _, n := range f.networks {
		if _, ok := n.Producer(ch); ok {
			return n
		}
	}
	return nil
}

// Seal computes the frame layout and each segment's route table. It fails
// if any node's total allocation exceeds the frame payload size.
func (f *Fabric) Seal() error {
	if f.sealed {
		return nil
	}
	nodes := f.cfg.Nodes()
	if len(nodes) > 0 {
		f.senders = make([]sender, nodes[len(nodes)-1]+1)
	}
	for _, node := range nodes {
		off := 0
		var segs []segment
		for _, n := range f.networks {
			ep := n.Endpoint(node)
			if ep == nil || ep.AllocBytes == 0 {
				continue
			}
			var routes []subscription
			for _, cs := range n.channels {
				if cs.ep != ep {
					continue
				}
				r := subscription{ch: cs.id}
				if i, ok := f.subIndex(cs.id); ok {
					r.ports = f.subs[i].ports
				}
				routes = append(routes, r)
			}
			segs = append(segs, segment{ep: ep, offset: off, length: ep.AllocBytes, routes: routes})
			off += ep.AllocBytes
		}
		if off > f.cfg.PayloadBytes {
			return fmt.Errorf("vnet: node %d allocation %d exceeds frame payload %d", node, off, f.cfg.PayloadBytes)
		}
		f.senders[node].segs = segs
	}
	for _, n := range f.networks {
		for _, ep := range n.endpoints {
			ep.sealedCap = ep.QueueCap
		}
	}
	for _, s := range f.subs {
		for _, p := range s.ports {
			p.sealedCap = p.Capacity
		}
	}
	f.sealed = true
	return nil
}

// Reset returns a sealed fabric to its just-sealed state for a new run,
// keeping the layout, the subscriptions and all buffers: every network
// and port is emptied (see Network and InPort), the capacities the
// misconfiguration faults change are restored, and the corruption seed is
// drawn from rng as NewFabric draws it.
func (f *Fabric) Reset(rng *sim.RNG) {
	f.corruptSeed = rng.Uint64()
	f.DecodeErrors = 0
	for _, n := range f.networks {
		n.reset()
	}
	for _, s := range f.subs {
		for _, p := range s.ports {
			p.reset()
		}
	}
}

// layout returns node's frame segments; none for a node outside the
// schedule.
func (f *Fabric) layout(node tt.NodeID) []segment {
	if node < 0 || int(node) >= len(f.senders) {
		return nil
	}
	return f.senders[node].segs
}

// PortsAt returns all in-ports subscribed at the given node, in channel
// order (stable across runs). The diagnostic monitors scan these.
func (f *Fabric) PortsAt(node tt.NodeID) []*InPort {
	var out []*InPort
	for _, s := range f.subs {
		for _, p := range s.ports {
			if p.Node == node {
				out = append(out, p)
			}
		}
	}
	return out
}

// PortTotals are the fabric-wide sums of every subscribed port's
// observation statistics — the virtual-network layer's telemetry view
// (CRC drops, misses, queue overflows, detected losses).
type PortTotals struct {
	Received     int64
	CRCFailures  int64
	FrameMisses  int64
	Overflows    int64
	SeqGaps      int64
	DecodeErrors int64
}

// Totals sums the port statistics across all subscriptions. It allocates
// nothing and is cheap enough to call every round; like the ports
// themselves it is not safe for use concurrently with the simulation loop.
func (f *Fabric) Totals() PortTotals {
	t := PortTotals{DecodeErrors: int64(f.DecodeErrors)}
	for _, s := range f.subs {
		for _, p := range s.ports {
			t.Received += int64(p.Stats.Received)
			t.CRCFailures += int64(p.Stats.CRCFailures)
			t.FrameMisses += int64(p.Stats.FrameMisses)
			t.Overflows += int64(p.Stats.Overflows)
			t.SeqGaps += int64(p.Stats.SeqGaps)
		}
	}
	return t
}

// Networks returns the registered networks in registration order.
func (f *Fabric) Networks() []*Network { return f.networks }

// Network returns the registered network with the given name, or nil.
func (f *Fabric) Network(name string) *Network {
	for _, n := range f.networks {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// BuildPayload assembles node's frame payload for one round: each attached
// network packs its segment in place, at its fixed offset. The returned
// buffer is reused on the node's next BuildPayload: frames are consumed
// within their TDMA slot, so nothing holds it longer.
func (f *Fabric) BuildPayload(node tt.NodeID) []byte {
	if !f.sealed {
		panic("vnet: BuildPayload before Seal")
	}
	segs := f.layout(node)
	if len(segs) == 0 {
		return nil
	}
	last := segs[len(segs)-1]
	size := last.offset + last.length
	snd := &f.senders[node]
	if cap(snd.buf) < size {
		snd.buf = make([]byte, size)
	}
	buf := snd.buf[:size]
	for _, s := range segs {
		end := s.offset + s.length
		s.ep.packSegment(buf[s.offset:end:end])
	}
	return buf
}

// form maps a receiver's status to how it got the frame: not at all
// (FrameOmitted, for timing failures too), FrameCorrupted, or intact
// (FrameOK, for any other status).
func form(st tt.FrameStatus) tt.FrameStatus {
	switch st {
	case tt.FrameOmitted, tt.FrameTiming:
		return tt.FrameOmitted
	case tt.FrameCorrupted:
		return tt.FrameCorrupted
	}
	return tt.FrameOK
}

// slotReceivers is one slot's reception, indexed by NodeID (see
// tt.Reception).
type slotReceivers struct {
	per     []tt.FrameStatus
	powered []bool
}

// got reports whether receiver n is powered and got the frame in form f.
func (r slotReceivers) got(n tt.NodeID, f tt.FrameStatus) bool {
	return uint(n) < uint(len(r.powered)) && r.powered[n] && form(r.per[n]) == f
}

// ConsumeSlot is the cluster's tt.Reception: it delivers one broadcast
// frame, arriving at fr.At, to every powered receiver at once, each per its
// status. Receivers that missed the frame record a miss on their ports fed
// by the sender. All that got it intact read the same bytes, and so do all
// that got it corrupted (CorruptBits bits flipped where a pure function of
// the frame puts them, so CRC checks fail realistically): each form is
// parsed once, only if some receiver got it, and each record is delivered
// as it is parsed.
func (f *Fabric) ConsumeSlot(fr *tt.Frame, perReceiver []tt.FrameStatus, powered []bool) {
	if !f.sealed {
		panic("vnet: ConsumeSlot before Seal")
	}
	segs := f.layout(fr.Sender)
	if len(segs) == 0 {
		return
	}
	var receivers [tt.FrameTiming + 1]int // per form
	for n, on := range powered {
		if on {
			receivers[form(perReceiver[n])]++
		}
	}
	rx := slotReceivers{per: perReceiver, powered: powered}
	if receivers[tt.FrameOmitted] > 0 {
		for _, s := range segs {
			for _, r := range s.routes {
				for _, p := range r.ports {
					if rx.got(p.Node, tt.FrameOmitted) {
						p.Stats.FrameMisses++
					}
				}
			}
		}
	}
	if receivers[tt.FrameOK] > 0 {
		f.DecodeErrors += receivers[tt.FrameOK] * deliver(segs, fr.Payload, rx, tt.FrameOK, fr.At)
	}
	if receivers[tt.FrameCorrupted] > 0 {
		f.damaged = f.corrupt(append(f.damaged[:0], fr.Payload...), fr)
		f.DecodeErrors += receivers[tt.FrameCorrupted] * deliver(segs, f.damaged, rx, tt.FrameCorrupted, fr.At)
	}
}

// deliver parses one form of a frame in place, checks each record's CRC
// and resolves its route as it goes, and hands the record to the ports of
// the receivers that got this form. A record nobody subscribes to is
// skipped unchecked. deliver returns the decode errors of the form.
func deliver(segs []segment, payload []byte, rx slotReceivers, f tt.FrameStatus, now sim.Time) (errors int) {
	for _, s := range segs {
		end := min(s.offset+s.length, len(payload))
		if s.offset >= end {
			continue
		}
		seg := payload[s.offset:end]
		var m Message
		for {
			n, ok := parseRecord(seg, &m)
			if n == 0 {
				if !ok {
					errors++
				}
				break
			}
			rec := seg[:n]
			seg = seg[n:]
			// Receivers know the static channel-to-sender mapping: a
			// record claiming a channel not produced by this frame's
			// sender is mis-framed corruption, not that channel's
			// traffic.
			ports, known := s.route(m.Channel)
			if !known {
				errors++
				continue
			}
			if len(ports) == 0 {
				continue
			}
			valid := crcValid(rec)
			for _, p := range ports {
				if rx.got(p.Node, f) {
					p.deliver(m, valid, now)
				}
			}
		}
	}
	return errors
}

// corrupt flips fr.CorruptBits (at least one) bits of payload in place.
// Their placement is a pure function of the frame's coordinates.
func (f *Fabric) corrupt(payload []byte, fr *tt.Frame) []byte {
	bits := max(fr.CorruptBits, 1)
	var crng sim.RNG
	crng.Seed(f.corruptSeed ^ uint64(fr.Round)*0x9e3779b97f4a7c15 ^ uint64(fr.Slot)<<48)
	for i := 0; i < bits && len(payload) > 0; i++ {
		pos := crng.Intn(len(payload) * 8)
		payload[pos/8] ^= 1 << (pos % 8)
	}
	return payload
}
