package vnet

import (
	"fmt"
	"sort"

	"decos/internal/ckpt"
	"decos/internal/sim"
	"decos/internal/tt"
)

// Checkpointing of the virtual-network layer. Configuration (networks,
// channels, layout, subscriptions) is rebuilt by the engine's build path;
// what a checkpoint carries is the mutable run state: per-channel
// sequence counters, endpoint outbound queues and published TT state,
// queue capacities (mutable through the misconfiguration faults), port
// receive queues and the LIF-visible port statistics the symptom
// detectors read.

func encodeMessage(e *ckpt.Encoder, m *Message) {
	e.Int(int(m.Channel))
	e.Uvarint(uint64(m.Seq))
	e.Varint(int64(m.SentAt))
	e.Bytes8(m.Payload)
}

func decodeMessage(d *ckpt.Decoder) Message {
	m := Message{
		Channel: ChannelID(d.Int()),
		Seq:     uint32(d.Uvarint()),
		SentAt:  sim.Time(d.Varint()),
	}
	if b := d.Bytes8(); len(b) > 0 {
		m.Payload = append([]byte(nil), b...)
	}
	return m
}

// Snapshot serializes one network's mutable state: channel sequence
// counters (ascending channel order) and per-endpoint outbound state
// (ascending node order).
func (n *Network) Snapshot(e *ckpt.Encoder) {
	e.Int(len(n.channels))
	for _, cs := range n.channels {
		e.Int(int(cs.id))
		e.Uvarint(uint64(cs.nextSeq))
	}
	nodes := make([]int, 0, len(n.endpoints))
	for id := range n.endpoints {
		nodes = append(nodes, int(id))
	}
	sort.Ints(nodes)
	e.Int(len(nodes))
	for _, id := range nodes {
		ep := n.endpoints[tt.NodeID(id)]
		e.Int(id)
		e.Int(ep.QueueCap)
		e.Int(ep.TxOverflows)
		e.Int(ep.TxMessages)
		e.Int(len(ep.outQueue))
		for i := range ep.outQueue {
			encodeMessage(e, &ep.outQueue[i])
		}
		// Published TT state in packing order; absent channels are marked.
		e.Int(len(ep.ttOrder))
		for _, cs := range ep.ttOrder {
			m := cs.state
			e.Bool(m != nil)
			if m != nil {
				encodeMessage(e, m)
			}
		}
	}
}

// Restore overwrites a freshly built network's mutable state.
func (n *Network) Restore(d *ckpt.Decoder) error {
	nc := d.Len(1 << 16)
	for i := 0; i < nc && d.Err() == nil; i++ {
		ch := ChannelID(d.Int())
		cs := n.channel(ch)
		if cs == nil {
			return fmt.Errorf("vnet: checkpoint names undeclared channel %d on %s", ch, n.Name)
		}
		cs.nextSeq = uint32(d.Uvarint())
	}
	ne := d.Len(1 << 16)
	for i := 0; i < ne && d.Err() == nil; i++ {
		id := tt.NodeID(d.Int())
		ep := n.endpoints[id]
		if ep == nil {
			return fmt.Errorf("vnet: checkpoint names missing endpoint %d on %s", id, n.Name)
		}
		ep.QueueCap = d.Int()
		ep.TxOverflows = d.Int()
		ep.TxMessages = d.Int()
		nq := d.Len(1 << 20)
		ep.outQueue = ep.outQueue[:0]
		for j := 0; j < nq && d.Err() == nil; j++ {
			ep.outQueue = append(ep.outQueue, decodeMessage(d))
		}
		nt := d.Len(1 << 16)
		if d.Err() == nil && nt != len(ep.ttOrder) {
			return fmt.Errorf("vnet: checkpoint TT state count %d, endpoint has %d channels", nt, len(ep.ttOrder))
		}
		for j := 0; j < nt && d.Err() == nil; j++ {
			cs := ep.ttOrder[j]
			if d.Bool() {
				m := decodeMessage(d)
				cs.state = &m
			} else {
				cs.state = nil
			}
		}
	}
	return d.Err()
}

// sortedPorts returns every subscribed port in (channel, subscription)
// order — the canonical iteration the snapshot encoding is defined over.
func (f *Fabric) sortedPorts() []*InPort {
	var out []*InPort
	for _, s := range f.subs {
		out = append(out, s.ports...)
	}
	return out
}

// Snapshot serializes the fabric's mutable state: decode-error tally and
// every port's queue, capacity and statistics.
func (f *Fabric) Snapshot(e *ckpt.Encoder) {
	e.Int(f.DecodeErrors)
	ports := f.sortedPorts()
	e.Int(len(ports))
	for _, p := range ports {
		e.Int(int(p.Channel))
		e.Int(int(p.Node))
		e.Int(p.Capacity)
		e.Int(len(p.queue))
		for i := range p.queue {
			encodeMessage(e, &p.queue[i])
		}
		st := &p.Stats
		e.Int(st.Received)
		e.Int(st.CRCFailures)
		e.Int(st.FrameMisses)
		e.Int(st.Overflows)
		e.Int(st.SeqGaps)
		e.Uvarint(uint64(st.LastSeq))
		e.Bool(st.haveSeq)
		e.Varint(int64(st.LastArrival))
		e.Bytes8(st.LastValue)
		e.Bool(st.LastWasValid)
	}
}

// Restore overwrites a freshly built fabric's port state. The port set is
// structural (it follows from the build path), so a count or identity
// mismatch is corruption.
func (f *Fabric) Restore(d *ckpt.Decoder) error {
	f.DecodeErrors = d.Int()
	ports := f.sortedPorts()
	n := d.Len(1 << 20)
	if d.Err() == nil && n != len(ports) {
		return fmt.Errorf("vnet: checkpoint has %d ports, fabric has %d", n, len(ports))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := ports[i]
		ch, node := ChannelID(d.Int()), tt.NodeID(d.Int())
		if ch != p.Channel || node != p.Node {
			return fmt.Errorf("vnet: checkpoint port %d is ch=%d node=%d, fabric has ch=%d node=%d",
				i, ch, node, p.Channel, p.Node)
		}
		p.Capacity = d.Int()
		nq := d.Len(1 << 20)
		p.queue = p.queue[:0]
		for j := 0; j < nq && d.Err() == nil; j++ {
			p.queue = append(p.queue, decodeMessage(d))
		}
		st := &p.Stats
		st.Received = d.Int()
		st.CRCFailures = d.Int()
		st.FrameMisses = d.Int()
		st.Overflows = d.Int()
		st.SeqGaps = d.Int()
		st.LastSeq = uint32(d.Uvarint())
		st.haveSeq = d.Bool()
		st.LastArrival = sim.Time(d.Varint())
		if b := d.Bytes8(); len(b) > 0 {
			st.LastValue = append([]byte(nil), b...)
		} else {
			st.LastValue = nil
		}
		st.LastWasValid = d.Bool()
	}
	return d.Err()
}
