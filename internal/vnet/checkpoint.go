package vnet

import (
	"fmt"
	"slices"

	"decos/internal/ckpt"
	"decos/internal/tt"
)

// Checkpointing of the virtual-network layer. Configuration (networks,
// channels, layout, subscriptions) is wired by the engine's build path
// and kept by a reset;
// what a checkpoint carries is the mutable run state: per-channel
// sequence counters, endpoint outbound queues and published TT state,
// queue capacities (mutable through the misconfiguration faults), port
// receive queues and the LIF-visible port statistics the symptom
// detectors read.

// codeMessage codes one message; decoding copies the payload into the
// message's own storage.
func codeMessage(c *ckpt.Coder, m *Message) {
	ckpt.Index(c, &m.Channel, 1<<16, "channel")
	ckpt.Uvarint(c, &m.Seq)
	ckpt.Varint(c, &m.SentAt)
	c.Bytes(&m.Payload)
}

// Code implements ckpt.Snapshotter: one network's mutable state, channel
// sequence counters (ascending channel order) and per-endpoint outbound
// state (ascending node order). Channels and endpoints are structural, so
// a count or identity mismatch is corruption.
func (n *Network) Code(c *ckpt.Coder) error {
	c.Count(len(n.channels), "channels")
	for _, cs := range n.channels {
		id := cs.id
		if ckpt.Index(c, &id, 1<<16, "channel"); c.Err() == nil && id != cs.id {
			c.Fail(fmt.Errorf("vnet: checkpoint names channel %d on %s where the build has %d", id, n.Name, cs.id))
		}
		ckpt.Uvarint(c, &cs.nextSeq)
	}
	nodes := make([]tt.NodeID, 0, len(n.endpoints))
	for id := range n.endpoints {
		nodes = append(nodes, id)
	}
	slices.Sort(nodes)
	c.Count(len(nodes), "endpoints")
	for _, id := range nodes {
		ep, got := n.endpoints[id], id
		if ckpt.Index(c, &got, 1<<16, "node"); c.Err() == nil && got != id {
			c.Fail(fmt.Errorf("vnet: checkpoint names endpoint %d on %s where the build has %d", got, n.Name, id))
		}
		c.Int(&ep.QueueCap)
		c.Int(&ep.TxOverflows)
		c.Int(&ep.TxMessages)
		ckpt.Slice(c, &ep.outQueue, 1<<20, codeMessage)
		// Published TT state in packing order; absent channels are marked.
		c.Count(len(ep.ttOrder), "TT channels")
		for _, cs := range ep.ttOrder {
			c.Bool(&cs.published)
			if cs.published {
				codeMessage(c, &cs.state)
			}
		}
	}
	return c.Err()
}

// sortedPorts returns every subscribed port in (channel, subscription)
// order — the canonical iteration the snapshot encoding is defined over.
func (f *Fabric) sortedPorts() []*InPort {
	n := 0
	for _, s := range f.subs {
		n += len(s.ports)
	}
	out := make([]*InPort, 0, n)
	for _, s := range f.subs {
		out = append(out, s.ports...)
	}
	return out
}

// Code implements ckpt.Snapshotter: the fabric's decode-error tally and
// every port's queue, capacity and statistics. The port set is structural
// (it follows from the build path), so a count or identity mismatch is
// corruption.
func (f *Fabric) Code(c *ckpt.Coder) error {
	c.Int(&f.DecodeErrors)
	ports := f.sortedPorts()
	c.Count(len(ports), "ports")
	for i, p := range ports {
		if c.Err() != nil {
			break
		}
		ch, node := p.Channel, p.Node
		ckpt.Index(c, &ch, 1<<16, "channel")
		ckpt.Index(c, &node, 1<<16, "node")
		if c.Err() == nil && (ch != p.Channel || node != p.Node) {
			return fmt.Errorf("vnet: checkpoint port %d is ch=%d node=%d, fabric has ch=%d node=%d",
				i, ch, node, p.Channel, p.Node)
		}
		c.Int(&p.Capacity)
		if c.Decoding() {
			p.arena, p.queued = p.arena[:0], 0
		}
		ckpt.Slice(c, &p.queue, 1<<20, func(c *ckpt.Coder, m *Message) {
			codeMessage(c, m)
			if c.Decoding() && !p.Overwrite {
				m.Payload = p.own(m.Payload)
				p.queued += len(m.Payload)
			}
		})
		st := &p.Stats
		c.Int(&st.Received)
		c.Int(&st.CRCFailures)
		c.Int(&st.FrameMisses)
		c.Int(&st.Overflows)
		c.Int(&st.SeqGaps)
		ckpt.Uvarint(c, &st.LastSeq)
		c.Bool(&st.haveSeq)
		ckpt.Varint(c, &st.LastArrival)
		c.Bytes(&st.LastValue)
		c.Bool(&st.LastWasValid)
	}
	return c.Err()
}
