package vnet

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"decos/internal/sim"
)

// decoded is one record of a segment and its CRC verdict.
type decoded struct {
	msg      Message
	crcValid bool
}

// decodeSegment parses every record of a segment with parseRecord and
// checks each one's CRC; ok is false when the segment ends in undecodable
// garbage.
func decodeSegment(seg []byte) (out []decoded, ok bool) {
	for {
		var m Message
		n, ok := parseRecord(seg, &m)
		if n == 0 {
			return out, ok
		}
		out = append(out, decoded{msg: m, crcValid: crcValid(seg[:n])})
		seg = seg[n:]
	}
}

func TestMessageRoundtrip(t *testing.T) {
	m := Message{Channel: 7, Seq: 42, Payload: []byte{1, 2, 3}, SentAt: 100}
	buf, err := encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != WireSize(3) {
		t.Errorf("wire size = %d, want %d", len(buf), WireSize(3))
	}
	out, ok := decodeSegment(buf)
	if !ok || len(out) != 1 {
		t.Fatalf("decode failed: ok=%v n=%d", ok, len(out))
	}
	got := out[0]
	if !got.crcValid {
		t.Error("CRC invalid on clean roundtrip")
	}
	if got.msg.Channel != 7 || got.msg.Seq != 42 || !bytes.Equal(got.msg.Payload, []byte{1, 2, 3}) {
		t.Errorf("decoded %+v", got.msg)
	}
}

func TestMessageRoundtripProperty(t *testing.T) {
	f := func(ch uint16, seq uint32, payload []byte) bool {
		if ch == 0 {
			ch = 1
		}
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		m := Message{Channel: ChannelID(ch), Seq: seq, Payload: payload}
		buf, err := encode(nil, m)
		if err != nil {
			return false
		}
		out, ok := decodeSegment(buf)
		if !ok || len(out) != 1 || !out[0].crcValid {
			return false
		}
		g := out[0].msg
		return g.Channel == m.Channel && g.Seq == m.Seq && bytes.Equal(g.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMultipleMessagesInSegment(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		var err error
		buf, err = encode(buf, Message{Channel: ChannelID(i + 1), Seq: uint32(i), Payload: FloatPayload(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	out, ok := decodeSegment(buf)
	if !ok || len(out) != 5 {
		t.Fatalf("decoded %d messages, ok=%v", len(out), ok)
	}
	for i, r := range out {
		if !r.crcValid || r.msg.Float() != float64(i) {
			t.Errorf("message %d: valid=%v value=%v", i, r.crcValid, r.msg.Float())
		}
	}
}

func TestPaddingTerminatesSegment(t *testing.T) {
	buf, _ := encode(nil, Message{Channel: 3, Seq: 1, Payload: []byte{9}})
	padded := append(buf, make([]byte, 20)...) // zero padding
	out, ok := decodeSegment(padded)
	if !ok || len(out) != 1 {
		t.Errorf("padding not terminated cleanly: ok=%v n=%d", ok, len(out))
	}
}

func TestCRCDetectsBitFlip(t *testing.T) {
	buf, _ := encode(nil, Message{Channel: 5, Seq: 9, Payload: FloatPayload(3.14)})
	detected := 0
	for bit := 0; bit < len(buf)*8; bit++ {
		mut := append([]byte(nil), buf...)
		mut[bit/8] ^= 1 << (bit % 8)
		out, _ := decodeSegment(mut)
		flagged := true
		for _, r := range out {
			if r.crcValid && r.msg.Channel == 5 && r.msg.Seq == 9 &&
				bytes.Equal(r.msg.Payload, FloatPayload(3.14)) {
				flagged = false // undetected corruption reproducing the original
			}
		}
		if flagged {
			detected++
		}
	}
	// Every single-bit flip must be detected (CRC-16 has Hamming distance
	// ≥ 4 for short messages) or at minimum alter the framing.
	if detected != len(buf)*8 {
		t.Errorf("only %d/%d single-bit flips detected", detected, len(buf)*8)
	}
}

// crc16Bitwise is the reference CRC-16/CCITT-FALSE, one bit at a time
// straight from the definition: polynomial 0x1021, initial value 0xffff,
// MSB first, no reflection, no final XOR.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwiseReference checks the table-driven CRC against the
// bitwise definition at every length a wire record can have, so each
// residue of the four-byte step and its byte-wise tail is covered, plus
// the catalogue check value of CRC-16/CCITT-FALSE.
func TestCRC16MatchesBitwiseReference(t *testing.T) {
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Errorf(`crc16("123456789") = %#04x, want 0x29b1`, got)
	}
	rng := rand.New(rand.NewPCG(20050404, 7))
	buf := make([]byte, WireSize(MaxPayload))
	for trial := 0; trial < 4; trial++ {
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		for n := 0; n <= len(buf); n++ {
			if got, want := crc16(buf[:n]), crc16Bitwise(buf[:n]); got != want {
				t.Fatalf("trial %d, length %d: crc16 = %#04x, bitwise reference = %#04x", trial, n, got, want)
			}
		}
	}
}

func TestTruncatedRecordFailsDecode(t *testing.T) {
	buf, _ := encode(nil, Message{Channel: 2, Seq: 1, Payload: []byte{1, 2, 3, 4}})
	_, ok := decodeSegment(buf[:len(buf)-3])
	if ok {
		t.Error("truncated record decoded ok")
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	_, err := encode(nil, Message{Channel: 1, Payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestFloatHelpers(t *testing.T) {
	m := Message{Payload: FloatPayload(-2.5)}
	if m.Float() != -2.5 {
		t.Errorf("Float() = %v", m.Float())
	}
	short := Message{Payload: []byte{1}}
	if !math.IsNaN(short.Float()) {
		t.Error("short payload did not yield NaN")
	}
	_ = sim.Time(0)
}
