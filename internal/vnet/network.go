package vnet

import (
	"fmt"
	"slices"

	"decos/internal/sim"
	"decos/internal/tt"
)

// Kind distinguishes the two virtual network paradigms of the DECOS
// architecture.
type Kind int

const (
	// TimeTriggered networks carry state messages: the producer's latest
	// value is re-published in every round (state semantics; a lost frame
	// only makes the state stale).
	TimeTriggered Kind = iota
	// EventTriggered networks carry event messages through bounded queues
	// (exactly-once intent; a lost frame loses messages, a full queue
	// overflows).
	EventTriggered
)

func (k Kind) String() string {
	if k == TimeTriggered {
		return "TT"
	}
	return "ET"
}

// Network is one encapsulated virtual network, typically owned by a single
// DAS (plus the dedicated virtual diagnostic network).
type Network struct {
	Name string
	Kind Kind
	// DAS is the name of the owning distributed application subsystem; the
	// diagnostic network uses "diagnosis".
	DAS string

	endpoints map[tt.NodeID]*Endpoint
	// channels is sorted by id: a binary search over a handful of
	// entries is cheaper than hashing the id on every send.
	channels []*channelState
}

type channelState struct {
	id      ChannelID
	ep      *Endpoint // the producing node's endpoint
	nextSeq uint32
	// state is a TT channel's published value, valid once published (the
	// first send); its payload buffer is reused by every later send.
	state     Message
	published bool
}

// channelIndex returns the position of id in the sorted channels slice
// and whether it is declared there. It runs on every send, so the search
// is written out rather than paying slices.BinarySearchFunc's indirect
// compare.
func (n *Network) channelIndex(id ChannelID) (int, bool) {
	lo, hi := 0, len(n.channels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.channels[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.channels) && n.channels[lo].id == id
}

// channel returns the declared channel id, or nil.
func (n *Network) channel(id ChannelID) *channelState {
	if i, ok := n.channelIndex(id); ok {
		return n.channels[i]
	}
	return nil
}

// NewNetwork creates an empty virtual network.
func NewNetwork(name string, kind Kind, das string) *Network {
	return &Network{
		Name:      name,
		Kind:      kind,
		DAS:       das,
		endpoints: make(map[tt.NodeID]*Endpoint),
	}
}

// Endpoint is the attachment of a network to one node: the byte budget the
// network owns in that node's frames, plus the outbound state/queue.
type Endpoint struct {
	Net  *Network
	Node tt.NodeID
	// AllocBytes is the segment size this network owns in the node's frame.
	AllocBytes int
	// QueueCap bounds the outbound event queue (ET networks only). A
	// mis-dimensioned QueueCap relative to the traffic model is the
	// paper's job-borderline configuration fault.
	QueueCap int
	// sealedCap is QueueCap as the fabric was sealed with; Reset
	// restores it.
	sealedCap int

	outQueue []Message       // ET pending messages, FIFO
	ttOrder  []*channelState // produced TT channels in packing order
	freeBufs [][]byte        // recycled ET payload buffers

	// TxOverflows counts messages dropped at the sender because the
	// outbound queue was full — the encapsulation service refusing to let
	// a job exceed its configured resources.
	TxOverflows int
	// TxMessages counts successfully accepted sends.
	TxMessages int
}

// AddEndpoint attaches the network to a node with the given frame-segment
// budget and (for ET networks) outbound queue capacity.
func (n *Network) AddEndpoint(node tt.NodeID, allocBytes, queueCap int) *Endpoint {
	if _, dup := n.endpoints[node]; dup {
		panic(fmt.Sprintf("vnet: duplicate endpoint for node %d on %s", node, n.Name))
	}
	ep := &Endpoint{
		Net:        n,
		Node:       node,
		AllocBytes: allocBytes,
		QueueCap:   queueCap,
	}
	n.endpoints[node] = ep
	return ep
}

// Endpoint returns the endpoint at the given node, or nil.
func (n *Network) Endpoint(node tt.NodeID) *Endpoint { return n.endpoints[node] }

// DeclareChannel registers a channel produced at the given node. Channel ids
// are cluster-global; id 0 is reserved for padding.
func (n *Network) DeclareChannel(id ChannelID, producer tt.NodeID) {
	if id == 0 {
		panic("vnet: channel id 0 is reserved")
	}
	i, dup := n.channelIndex(id)
	if dup {
		panic(fmt.Sprintf("vnet: duplicate channel %d on %s", id, n.Name))
	}
	ep := n.endpoints[producer]
	if ep == nil {
		panic(fmt.Sprintf("vnet: channel %d producer node %d has no endpoint on %s", id, producer, n.Name))
	}
	cs := &channelState{id: id, ep: ep}
	n.channels = slices.Insert(n.channels, i, cs)
	if n.Kind == TimeTriggered {
		ep.ttOrder = append(ep.ttOrder, cs)
	}
}

// Producer returns the producing node of a channel and whether the channel
// exists on this network.
func (n *Network) Producer(id ChannelID) (tt.NodeID, bool) {
	cs := n.channel(id)
	if cs == nil {
		return tt.NoNode, false
	}
	return cs.ep.Node, true
}

// Channels returns all channel ids declared on the network, in ascending
// order.
func (n *Network) Channels() []ChannelID {
	out := make([]ChannelID, len(n.channels))
	for i, cs := range n.channels {
		out[i] = cs.id
	}
	return out
}

// Send publishes a message on the given channel from its producing node at
// time now. For TT channels the value replaces the published state; for ET
// channels it is appended to the outbound queue. Send reports whether the
// message was accepted (false = queue overflow, counted on the endpoint).
// The payload is copied into endpoint-owned storage, so the caller may reuse
// its buffer immediately.
func (n *Network) Send(ch ChannelID, payload []byte, now sim.Time) bool {
	cs := n.channel(ch)
	if cs == nil {
		panic(fmt.Sprintf("vnet: send on undeclared channel %d", ch))
	}
	ep := cs.ep
	seq := cs.nextSeq
	cs.nextSeq++
	if n.Kind == TimeTriggered {
		st := &cs.state
		st.Channel, st.Seq, st.SentAt = ch, seq, now
		st.Payload = append(st.Payload[:0], payload...)
		cs.published = true
		ep.TxMessages++
		return true
	}
	if ep.QueueCap > 0 && len(ep.outQueue) >= ep.QueueCap {
		ep.TxOverflows++
		return false
	}
	m := Message{Channel: ch, Seq: seq, SentAt: now}
	m.Payload = append(ep.takeBuf(), payload...)
	ep.outQueue = append(ep.outQueue, m)
	ep.TxMessages++
	return true
}

// takeBuf pops a recycled payload buffer (or returns nil, making the append
// in Send allocate a fresh one).
func (ep *Endpoint) takeBuf() []byte {
	if n := len(ep.freeBufs); n > 0 {
		b := ep.freeBufs[n-1]
		ep.freeBufs = ep.freeBufs[:n-1]
		return b
	}
	return nil
}

// packSegment serializes the endpoint's pending traffic into window, its
// AllocBytes-long segment of the frame buffer, and zeroes the unused tail
// (the padding that terminates the segment). TT networks publish every
// produced channel's current state; ET networks drain the queue head-first
// as far as the budget allows.
func (ep *Endpoint) packSegment(window []byte) {
	seg := window[:0]
	if ep.Net.Kind == TimeTriggered {
		for _, cs := range ep.ttOrder {
			if !cs.published {
				continue
			}
			m := &cs.state
			if WireSize(len(m.Payload)) > len(window)-len(seg) {
				break
			}
			var err error
			seg, err = encode(seg, *m)
			if err != nil {
				panic(err)
			}
		}
		clear(window[len(seg):])
		return
	}
	drained := 0
	for drained < len(ep.outQueue) {
		m := ep.outQueue[drained]
		if WireSize(len(m.Payload)) > len(window)-len(seg) {
			break
		}
		var err error
		seg, err = encode(seg, m)
		if err != nil {
			panic(err)
		}
		if cap(m.Payload) > 0 {
			ep.freeBufs = append(ep.freeBufs, m.Payload[:0])
		}
		drained++
	}
	clear(window[len(seg):])
	if drained > 0 {
		// Shift the remainder down instead of reslicing so the queue's
		// backing array (and its capacity) is kept across rounds.
		rest := copy(ep.outQueue, ep.outQueue[drained:])
		tail := ep.outQueue[rest:]
		for i := range tail {
			tail[i] = Message{}
		}
		ep.outQueue = ep.outQueue[:rest]
	}
}

// reset returns the network to its just-sealed state: no channel
// published, sequence counters at zero, every outbound queue empty (its
// payload buffers recycled) at its sealed capacity, tallies zeroed.
func (n *Network) reset() {
	for _, cs := range n.channels {
		cs.nextSeq, cs.published = 0, false
	}
	for _, ep := range n.endpoints {
		for i, m := range ep.outQueue {
			if cap(m.Payload) > 0 {
				ep.freeBufs = append(ep.freeBufs, m.Payload[:0])
			}
			ep.outQueue[i] = Message{}
		}
		ep.outQueue = ep.outQueue[:0]
		ep.QueueCap = ep.sealedCap
		ep.TxOverflows, ep.TxMessages = 0, 0
	}
}

// QueueLen returns the number of messages waiting in the outbound queue.
func (ep *Endpoint) QueueLen() int { return len(ep.outQueue) }
