package vnet

import (
	"bytes"
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
	// Overwrite makes the port keep only the newest message (state port).
	Overwrite bool

	queue []Message

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
// empty.
func (p *InPort) Receive() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	m := p.queue[0]
	// Shift instead of reslicing so the queue's backing array is reused.
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = Message{}
	p.queue = p.queue[:n]
	return m, true
}

// Peek returns the newest message without consuming it. On a state port
// (Overwrite) the payload is only valid until the next delivery; copy it to
// retain it across rounds.
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
	var buf []byte
	if p.Overwrite && len(p.queue) == 1 {
		buf = p.queue[0].Payload[:0]
	}
	m.Payload = append(buf, m.Payload...)
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

// frameDecode is one broadcast frame decoded for all of its receivers.
// Parsing, CRC checks and channel routing depend only on the bytes that
// were broadcast (after a corrupted frame's deterministic bit flips), never
// on the receiver, so the first ConsumeFrame of a slot fills it and the
// other receivers reuse it. The key is the frame as received: coordinates,
// corruption and a copy of the payload bytes, so a payload the fabric did
// not build, or one reused in place, is never confused with another.
type frameDecode struct {
	valid       bool
	sender      tt.NodeID
	round       int64
	slot        int
	corruptBits int
	raw         []byte // the payload as received (part of the key)
	damaged     []byte // a corrupted frame's bytes after the bit flips
	// msgs are the routed records with at least one subscriber; their
	// payloads alias raw or damaged.
	msgs []decodeResult
	// errors is the decode-error count one consumption of the frame adds.
	errors int
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
	// decoded holds the current slot's frame as received intact
	// (decoded[0]) and as received corrupted (decoded[1]): a receiver-side
	// fault may corrupt the frame at some receivers only.
	decoded [2]frameDecode

	// DecodeErrors counts frames whose segment structure was undecodable
	// after corruption.
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
	f.sealed = true
	return nil
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

// BuildPayload assembles node's frame payload for one round by packing each
// attached network's segment at its fixed offset. The returned buffer is
// reused on the node's next BuildPayload: frames are consumed within their
// TDMA slot, so nothing holds it longer. Building a frame starts a new
// slot, so it also drops the previous slot's decodes.
func (f *Fabric) BuildPayload(node tt.NodeID) []byte {
	if !f.sealed {
		panic("vnet: BuildPayload before Seal")
	}
	f.decoded[0].valid, f.decoded[1].valid = false, false
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
	clear(buf)
	for _, s := range segs {
		copy(buf[s.offset:s.offset+s.length], s.ep.packSegment())
	}
	return buf
}

// ConsumeFrame dispatches one received frame at one receiver. Correct
// frames are decoded per the sender's layout and delivered to the
// receiver's subscribed ports; corrupted frames have CorruptBits random bits
// flipped first (so CRC checks fail realistically); omitted/timing frames
// record a miss on every subscribed port fed by the sender. The decode is
// shared by every receiver of the slot; only the delivery is per receiver.
func (f *Fabric) ConsumeFrame(receiver tt.NodeID, fr tt.Frame, st tt.FrameStatus, now sim.Time) {
	if !f.sealed {
		panic("vnet: ConsumeFrame before Seal")
	}
	segs := f.layout(fr.Sender)
	if len(segs) == 0 {
		return
	}
	if st == tt.FrameOmitted || st == tt.FrameTiming {
		for _, s := range segs {
			for _, r := range s.routes {
				for _, p := range r.ports {
					if p.Node == receiver {
						p.Stats.FrameMisses++
					}
				}
			}
		}
		return
	}
	d := f.decode(fr, st == tt.FrameCorrupted, segs)
	f.DecodeErrors += d.errors
	for i := range d.msgs {
		r := &d.msgs[i]
		for _, p := range r.ports {
			if p.Node == receiver {
				p.deliver(r.msg, r.crcValid, now)
			}
		}
	}
}

// decode returns the slot's decode of fr as received intact or corrupted,
// reusing the previous receiver's when it saw the same frame.
func (f *Fabric) decode(fr tt.Frame, corrupted bool, segs []segment) *frameDecode {
	d := &f.decoded[0]
	if corrupted {
		d = &f.decoded[1]
	}
	if d.valid && d.sender == fr.Sender && d.round == fr.Round && d.slot == fr.Slot &&
		d.corruptBits == fr.CorruptBits && bytes.Equal(d.raw, fr.Payload) {
		return d
	}
	d.valid, d.sender, d.round, d.slot, d.corruptBits = true, fr.Sender, fr.Round, fr.Slot, fr.CorruptBits
	d.raw = append(d.raw[:0], fr.Payload...)
	d.msgs, d.errors = d.msgs[:0], 0
	payload := d.raw
	if corrupted {
		d.damaged = f.corrupt(append(d.damaged[:0], d.raw...), fr)
		payload = d.damaged
	}
	for _, s := range segs {
		end := min(s.offset+s.length, len(payload))
		if s.offset >= end {
			continue
		}
		first := len(d.msgs)
		msgs, ok := decodeSegment(d.msgs, payload[s.offset:end])
		if !ok {
			d.errors++
		}
		d.msgs = msgs[:first]
		for _, r := range msgs[first:] {
			// Receivers know the static channel-to-sender mapping: a
			// record claiming a channel not produced by this frame's
			// sender is mis-framed corruption, not that channel's
			// traffic.
			ports, known := s.route(r.msg.Channel)
			if !known {
				d.errors++
				continue
			}
			if len(ports) > 0 {
				r.ports = ports
				d.msgs = append(d.msgs, r)
			}
		}
	}
	return d
}

// corrupt flips fr.CorruptBits (at least one) bits of payload in place.
// Their placement is a pure function of the frame's coordinates.
func (f *Fabric) corrupt(payload []byte, fr tt.Frame) []byte {
	bits := max(fr.CorruptBits, 1)
	var crng sim.RNG
	crng.Seed(f.corruptSeed ^ uint64(fr.Round)*0x9e3779b97f4a7c15 ^ uint64(fr.Slot)<<48)
	for i := 0; i < bits && len(payload) > 0; i++ {
		pos := crng.Intn(len(payload) * 8)
		payload[pos/8] ^= 1 << (pos % 8)
	}
	return payload
}
