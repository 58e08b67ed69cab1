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
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Channel))
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = append(dst, byte(len(m.Payload)))
	dst = append(dst, m.Payload...)
	return binary.BigEndian.AppendUint16(dst, crc16(dst[start:])), nil
}

// parseRecord parses the record at the front of a VN segment into m, whose
// payload then aliases seg (a consumer that retains it must copy it, as
// InPort.deliver does), and returns its wire length n. n == 0 ends the
// segment: cleanly (ok) at padding or a tail too short for a record, or at
// undecodable garbage (!ok), a record running past the segment. The CRC is
// left to crcValid. (m is an out-parameter so the hot loop fills one
// Message in place instead of copying a returned one.)
func parseRecord(seg []byte, m *Message) (n int, ok bool) {
	if len(seg) < headerBytes+crcBytes || seg[0]|seg[1]|seg[6] == 0 {
		return 0, true // short tail or padding terminator
	}
	n = WireSize(int(seg[6]))
	if n > len(seg) {
		return 0, false
	}
	m.Channel = ChannelID(binary.BigEndian.Uint16(seg))
	m.Seq = binary.BigEndian.Uint32(seg[2:])
	m.Payload = seg[headerBytes : n-crcBytes]
	return n, true
}

// crcValid reports whether a record's trailing CRC matches its contents.
func crcValid(rec []byte) bool {
	n := len(rec) - crcBytes
	return crc16(rec[:n]) == binary.BigEndian.Uint16(rec[n:])
}
