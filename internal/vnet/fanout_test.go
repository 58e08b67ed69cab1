package vnet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
)

// The fabric consumes each broadcast frame once per slot for all of its
// receivers, parsing each form of it (intact, corrupted) at most once. The
// tests below hold that to a decode done separately at each receiver: two
// fabrics are built from one generated topology and fed the same traffic,
// one through ConsumeSlot and one through consumeFramePerReceiver at every
// powered receiver, and every receiver's observations must agree after
// every slot.

// consumeFramePerReceiver is the reference decoder: each receiver copies,
// corrupts, parses, checksums and routes the frame on its own.
func consumeFramePerReceiver(f *Fabric, receiver tt.NodeID, fr tt.Frame, st tt.FrameStatus, now sim.Time) {
	segs := f.layout(fr.Sender)
	if len(segs) == 0 {
		return
	}
	subscribers := func(ch ChannelID) []*InPort {
		if i, ok := f.subIndex(ch); ok {
			return f.subs[i].ports
		}
		return nil
	}
	if st == tt.FrameOmitted || st == tt.FrameTiming {
		for _, s := range segs {
			for _, cs := range s.ep.Net.channels {
				if cs.ep.Node != fr.Sender {
					continue
				}
				for _, p := range subscribers(cs.id) {
					if p.Node == receiver {
						p.Stats.FrameMisses++
					}
				}
			}
		}
		return
	}

	payload := fr.Payload
	if st == tt.FrameCorrupted {
		payload = append([]byte(nil), payload...)
		bits := fr.CorruptBits
		if bits <= 0 {
			bits = 1
		}
		crng := sim.NewRNG(f.corruptSeed ^ uint64(fr.Round)*0x9e3779b97f4a7c15 ^ uint64(fr.Slot)<<48)
		for i := 0; i < bits && len(payload) > 0; i++ {
			pos := crng.Intn(len(payload) * 8)
			payload[pos/8] ^= 1 << (pos % 8)
		}
	}

	for _, s := range segs {
		end := s.offset + s.length
		if end > len(payload) {
			end = len(payload)
		}
		if s.offset >= end {
			continue
		}
		msgs, ok := decodeSegment(payload[s.offset:end])
		if !ok {
			f.DecodeErrors++
		}
		for _, r := range msgs {
			if prod, known := s.ep.Net.Producer(r.msg.Channel); !known || prod != fr.Sender {
				f.DecodeErrors++
				continue
			}
			for _, p := range subscribers(r.msg.Channel) {
				if p.Node == receiver {
					p.deliver(r.msg, r.crcValid, now)
				}
			}
		}
	}
}

// script turns arbitrary bytes into harness decisions; reads past the end
// return zero, so every input is a valid script.
type script struct {
	b []byte
	i int
}

func (s *script) byte() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *script) intn(n int) int { return int(s.byte()) % n }

func (s *script) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.byte()
	}
	return out
}

// fanoutTopology is a generated cluster: networks with per-node segment
// budgets, channels (small ids and diagnostic-range ids, some shared
// across networks) and subscriptions.
type fanoutTopology struct {
	nodes, payload int
	nets           []fanoutNet
	subs           []fanoutSub
}

type fanoutNet struct {
	kind     Kind
	alloc    []int // per node; 0 = no endpoint
	queueCap int
	chans    []fanoutChan
}

type fanoutChan struct {
	id       ChannelID
	producer tt.NodeID
}

type fanoutSub struct {
	node      tt.NodeID
	ch        ChannelID
	capacity  int
	overwrite bool
}

func genTopology(s *script) fanoutTopology {
	top := fanoutTopology{nodes: 1 + s.intn(4), payload: 24 + s.intn(105)}
	left := make([]int, top.nodes)
	for i := range left {
		left[i] = top.payload
	}
	next := ChannelID(1)
	if s.intn(2) == 1 {
		next = 60000
	}
	var all []ChannelID
	for k := 1 + s.intn(3); k > 0; k-- {
		n := fanoutNet{kind: Kind(s.intn(2)), alloc: make([]int, top.nodes), queueCap: s.intn(6)}
		var hosts []tt.NodeID
		for node := range n.alloc {
			if s.intn(4) == 0 || left[node] < 9 {
				continue
			}
			n.alloc[node] = 9 + s.intn(left[node]-8)
			left[node] -= n.alloc[node]
			hosts = append(hosts, tt.NodeID(node))
		}
		if len(hosts) > 0 {
			var declared []ChannelID
			for c := s.intn(4); c > 0; c-- {
				id := next
				if len(all) > 0 && s.intn(8) == 0 {
					id = all[s.intn(len(all))] // same id on another network
				} else {
					next += ChannelID(1 + s.intn(3))
				}
				dup := false
				for _, d := range declared {
					dup = dup || d == id
				}
				if dup {
					continue
				}
				declared = append(declared, id)
				all = append(all, id)
				n.chans = append(n.chans, fanoutChan{id: id, producer: hosts[s.intn(len(hosts))]})
			}
		}
		top.nets = append(top.nets, n)
	}
	if len(all) > 0 {
		for k := s.intn(9); k > 0; k-- {
			top.subs = append(top.subs, fanoutSub{
				node: tt.NodeID(s.intn(top.nodes)), ch: all[s.intn(len(all))],
				capacity: s.intn(4), overwrite: s.intn(2) == 0,
			})
		}
	}
	return top
}

func (top fanoutTopology) build(t testing.TB, seed uint64) (*Fabric, []*Network) {
	f := NewFabric(tt.UniformSchedule(top.nodes, 250, top.payload), sim.NewRNG(seed))
	var nets []*Network
	for _, spec := range top.nets {
		n := NewNetwork("n", spec.kind, "d")
		for node, alloc := range spec.alloc {
			if alloc > 0 {
				n.AddEndpoint(tt.NodeID(node), alloc, spec.queueCap)
			}
		}
		for _, c := range spec.chans {
			n.DeclareChannel(c.id, c.producer)
		}
		f.AddNetwork(n)
		nets = append(nets, n)
	}
	for _, sub := range top.subs {
		f.Subscribe(sub.node, sub.ch, sub.capacity, sub.overwrite)
	}
	if err := f.Seal(); err != nil {
		t.Fatalf("generated topology does not seal: %v", err)
	}
	return f, nets
}

// Frame shapes the harness broadcasts.
const (
	shapeOK = iota
	shapeCorrupted
	shapeOmitted
	shapeTiming
	shapeCleared   // a TxFault cleared the payload; status stays OK
	shapeHandBuilt // arbitrary bytes; a later one may edit them in place
	shapeCount
)

// runFanout drives both fabrics through a script's rounds and fails on the
// first slot after which any receiver's observations differ. It returns
// the observations' totals.
func runFanout(t testing.TB, data []byte) PortTotals {
	s := &script{b: data}
	top := genTopology(s)
	seed := uint64(s.byte())
	shared, sharedNets := top.build(t, seed)
	ref, refNets := top.build(t, seed)
	per := make([]tt.FrameStatus, top.nodes)
	powered := make([]bool, top.nodes)
	// hand and handRef are the two sides' hand-built frame buffers; a
	// later hand-built slot may edit them in place instead of replacing
	// them, at the same coordinates when those are reused too.
	var hand, handRef []byte

	for round := int64(0); s.i < len(s.b); round++ {
		for slot := 0; slot < top.nodes; slot++ {
			sender := tt.NodeID(slot)
			for k, spec := range top.nets {
				for _, c := range spec.chans {
					if c.producer == sender && s.intn(3) != 0 {
						payload := s.bytes(s.intn(13))
						now := sim.Time(round)
						sharedNets[k].Send(c.id, payload, now)
						refNets[k].Send(c.id, payload, now)
					}
				}
			}
			sp, rp := shared.BuildPayload(sender), ref.BuildPayload(sender)
			if !bytes.Equal(sp, rp) {
				t.Fatalf("round %d slot %d: identical fabrics built different frames", round, slot)
			}
			fr := tt.Frame{Round: round, Slot: slot, Sender: sender, Status: tt.FrameOK,
				At: sim.Time(round*1000 + int64(slot))}
			if s.intn(4) == 0 {
				fr.Round, fr.Slot = 0, 0 // frames rebuilt at reused coordinates
			}
			shape := s.intn(shapeCount)
			switch shape {
			case shapeCorrupted:
				fr.Status, fr.CorruptBits = tt.FrameCorrupted, s.intn(24)
			case shapeOmitted:
				fr.Status, sp, rp = tt.FrameOmitted, nil, nil
			case shapeTiming:
				fr.Status = tt.FrameTiming
			case shapeCleared:
				sp, rp = nil, nil
			case shapeHandBuilt:
				if len(hand) > 0 && s.intn(2) == 0 {
					i, bit := s.intn(len(hand)), byte(1)<<s.intn(8)
					hand[i] ^= bit
					handRef[i] ^= bit
				} else {
					hand = s.bytes(s.intn(top.payload + 8))
					handRef = append([]byte(nil), hand...)
				}
				sp, rp = hand, handRef
			}
			// Receiver-side faults degrade the frame at some receivers
			// only, and some receivers are powered off.
			for rcv := range per {
				per[rcv], powered[rcv] = fr.Status, s.intn(5) != 0
				if s.intn(3) == 0 {
					per[rcv] = tt.FrameStatus(s.intn(4))
				}
			}
			sf, rf := fr, fr
			sf.Payload, rf.Payload = sp, rp
			shared.ConsumeSlot(&sf, per, powered)
			for rcv, on := range powered {
				if on {
					consumeFramePerReceiver(ref, tt.NodeID(rcv), rf, per[rcv], rf.At)
				}
			}
			if err := sameObservations(shared, ref); err != nil {
				t.Fatalf("round %d slot %d (shape %d, statuses %v, powered %v): %v", round, slot, shape, per, powered, err)
			}
		}
	}
	return shared.Totals()
}

// sameObservations compares everything a receiver can observe: each
// port's statistics and receive queue, the decode-error tally and the
// fabric totals.
func sameObservations(a, b *Fabric) error {
	if a.DecodeErrors != b.DecodeErrors {
		return fmt.Errorf("DecodeErrors %d, reference %d", a.DecodeErrors, b.DecodeErrors)
	}
	if a.Totals() != b.Totals() {
		return fmt.Errorf("Totals %+v, reference %+v", a.Totals(), b.Totals())
	}
	pa, pb := a.sortedPorts(), b.sortedPorts()
	for i := range pa {
		if !reflect.DeepEqual(pa[i].Stats, pb[i].Stats) {
			return fmt.Errorf("port %d (ch %d node %d) stats %+v, reference %+v",
				i, pa[i].Channel, pa[i].Node, pa[i].Stats, pb[i].Stats)
		}
		if !reflect.DeepEqual(pa[i].queue, pb[i].queue) {
			return fmt.Errorf("port %d (ch %d node %d) receive queue differs", i, pa[i].Channel, pa[i].Node)
		}
	}
	return nil
}

// TestFrameFanoutMatchesPerReceiverDecode runs the harness over random
// scripts: random topologies and payload bytes, every frame shape, mixed
// receiver statuses within a slot, and powered-off receivers.
func TestFrameFanoutMatchesPerReceiverDecode(t *testing.T) {
	rng := sim.NewRNG(20050404)
	var sum PortTotals
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.Intn(1024))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		got := runFanout(t, data)
		sum.Received += got.Received
		sum.CRCFailures += got.CRCFailures
		sum.FrameMisses += got.FrameMisses
		sum.Overflows += got.Overflows
		sum.SeqGaps += got.SeqGaps
		sum.DecodeErrors += got.DecodeErrors
	}
	// The scripts must reach every observation the decode feeds.
	t.Logf("totals over all scripts: %+v", sum)
	if sum.Received == 0 || sum.CRCFailures == 0 || sum.FrameMisses == 0 ||
		sum.Overflows == 0 || sum.SeqGaps == 0 || sum.DecodeErrors == 0 {
		t.Errorf("scripts leave an observation unexercised: %+v", sum)
	}
}

// FuzzFrameFanout explores scripts beyond the random ones: consuming a
// slot must never panic, and must match the per-receiver reference decode
// on every receiver.
func FuzzFrameFanout(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 64, 1, 0, 1, 2, 40, 30, 20, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for shape := byte(0); shape < shapeCount; shape++ {
		seed := bytes.Repeat([]byte{2, 100, 0, 1, 0, 30, 30, 2, 1, 2, 5, 0, 1, 1, 8, 3, shape}, 4)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runFanout(t, data)
	})
}
