// Package vnet implements the DECOS virtual network high-level service:
// encapsulated overlay networks multiplexed onto the payload of the
// time-triggered core network's frames (paper Section II-D and [13]).
//
// Each virtual network (VN) owns a fixed byte segment in each producing
// node's frame, so a misbehaving job can never consume another DAS's
// bandwidth — the encapsulation service that makes per-FRU diagnosis
// possible. Two port semantics are provided: time-triggered state channels
// (the latest value is re-published every round) and event-triggered
// queued channels with bounded queues, whose overflows are exactly the
// "job borderline (configuration) fault" manifestation of the paper's
// Section III-D.
package vnet

import (
	"encoding/binary"
	"fmt"
	"math"

	"decos/internal/sim"
)

// ChannelID names one communication channel within a cluster. A channel has
// exactly one producing port and any number of subscribers.
type ChannelID uint16

// Message is one application-level message on a virtual network channel.
type Message struct {
	Channel ChannelID
	Seq     uint32
	Payload []byte
	// SentAt is the time the producer handed the message to the VN service.
	SentAt sim.Time
}

// Float returns the payload interpreted as a float64 value, the common case
// for sensor/actuator traffic. It returns NaN if the payload is too short.
func (m Message) Float() float64 {
	if len(m.Payload) < 8 {
		return math.NaN()
	}
	return math.Float64frombits(binary.BigEndian.Uint64(m.Payload))
}

// FloatPayload encodes a float64 as a message payload.
func FloatPayload(v float64) []byte {
	return AppendFloat(nil, v)
}

// AppendFloat appends the 8-byte payload encoding of v to dst and returns
// the extended slice — the allocation-free form of FloatPayload for callers
// with a scratch buffer.
func AppendFloat(dst []byte, v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

// Wire format of one message inside a VN segment:
//
//	channel  uint16
//	seq      uint32
//	len      uint8   (payload length, <= MaxPayload)
//	payload  len bytes
//	crc      uint16  (CRC-16/CCITT over all preceding bytes)
//
// A segment is a sequence of such records; a zero channel-id word with zero
// length terminates the segment early (padding).
const (
	headerBytes = 2 + 4 + 1
	crcBytes    = 2
	// MaxPayload is the largest message payload the wire format carries.
	MaxPayload = 255
)

// WireSize returns the encoded size of a message with the given payload
// length.
func WireSize(payloadLen int) int { return headerBytes + payloadLen + crcBytes }

// crcTables are the slicing-by-8 tables for CRC-16/CCITT-FALSE (polynomial
// 0x1021, MSB first): crcTables[k][v] is the register contribution of byte
// v followed by k zero bytes, so eight XORed lookups advance the register
// over eight bytes (and the first four tables over four). Every message is
// checksummed on encode and checked on decode, which makes the CRC one of
// the hottest functions of a full simulation.
var crcTables = func() (t [8][256]uint16) {
	for i := range t[0] {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < len(t); k++ {
		for i, v := range t[k-1] {
			t[k][i] = v<<8 ^ t[0][v>>8]
		}
	}
	return
}()

// crc16 computes CRC-16/CCITT-FALSE, eight bytes per step, then one
// four-byte step if four or more bytes remain (most 15- to 28-byte
// messages end with one); the zero to three trailing bytes go through the
// byte table.
func crc16(data []byte) uint16 {
	t := &crcTables
	crc := uint16(0xffff)
	for ; len(data) >= 8; data = data[8:] {
		crc = t[7][byte(crc>>8)^data[0]] ^ t[6][byte(crc)^data[1]] ^ t[5][data[2]] ^ t[4][data[3]] ^
			t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	if len(data) >= 4 {
		crc = t[3][byte(crc>>8)^data[0]] ^ t[2][byte(crc)^data[1]] ^ t[1][data[2]] ^ t[0][data[3]]
		data = data[4:]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}

// encode appends the wire form of m to dst and returns the extended slice.
func encode(dst []byte, m Message) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return dst, fmt.Errorf("vnet: payload %d exceeds max %d", len(m.Payload), MaxPayload)
	}
	start := len(dst)
	var hdr [headerBytes]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(m.Channel))
	binary.BigEndian.PutUint32(hdr[2:6], m.Seq)
	hdr[6] = byte(len(m.Payload))
	dst = append(dst, hdr[:]...)
	dst = append(dst, m.Payload...)
	crc := crc16(dst[start:])
	var tail [crcBytes]byte
	binary.BigEndian.PutUint16(tail[:], crc)
	dst = append(dst, tail[:]...)
	return dst, nil
}

// decodeResult is one decoded message plus its integrity verdict and,
// once the fabric has routed it, the ports subscribed to its channel.
type decodeResult struct {
	msg      Message
	crcValid bool
	ports    []*InPort
}

// decodeSegment parses all messages in a VN segment, appending to dst (a
// reusable scratch buffer). Messages whose CRC fails are still returned
// (with crcValid=false) when their framing is intact; undecodable trailing
// garbage terminates the parse with ok=false.
//
// The returned payloads alias the segment buffer: a consumer that retains
// one must copy it (InPort.deliver does).
func decodeSegment(dst []decodeResult, seg []byte) (out []decodeResult, ok bool) {
	out = dst
	ok = true
	for len(seg) >= headerBytes+crcBytes {
		ch := binary.BigEndian.Uint16(seg[0:2])
		plen := int(seg[6])
		if ch == 0 && plen == 0 {
			break // padding terminator
		}
		total := WireSize(plen)
		if total > len(seg) {
			ok = false
			break
		}
		rec := seg[:total]
		crc := binary.BigEndian.Uint16(rec[total-crcBytes:])
		m := Message{
			Channel: ChannelID(ch),
			Seq:     binary.BigEndian.Uint32(rec[2:6]),
			Payload: rec[headerBytes : headerBytes+plen],
		}
		out = append(out, decodeResult{msg: m, crcValid: crc16(rec[:total-crcBytes]) == crc})
		seg = seg[total:]
	}
	return out, ok
}
