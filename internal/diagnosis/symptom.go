package diagnosis

import (
	"encoding/binary"
	"fmt"
	"math"

	"decos/internal/sim"
	"decos/internal/vnet"
)

// Kind classifies one symptom: a detected deviation of an interface state
// variable from its LIF specification (paper Section V-A). Kinds map onto
// the three judgment dimensions — omission/timing/stale are time-domain,
// corruption/value/stuck are value-domain; the space dimension comes from
// the subject FRU and the observer.
type Kind uint8

const (
	// SymOmission: a frame or message expected in a slot did not arrive.
	SymOmission Kind = iota
	// SymCorruption: a frame or message failed its coding (CRC) check;
	// Deviation carries the flipped-bit estimate.
	SymCorruption
	// SymTiming: a frame arrived outside its receive window.
	SymTiming
	// SymValue: a message value violated the channel's value spec;
	// Deviation carries the normalized overshoot.
	SymValue
	// SymDeviation: a value is still within spec but drifting toward the
	// boundary ("at the verge of becoming incorrect", Fig. 8); Deviation
	// carries the normalized position in [0,1].
	SymDeviation
	// SymStale: a state channel's sequence number froze beyond its
	// staleness bound.
	SymStale
	// SymStuck: a dynamic signal stayed bit-identical beyond its
	// plausibility window (stuck-at transducer manifestation).
	SymStuck
	// SymOverflow: a port queue overflowed although producers conformed to
	// their specs (configuration-fault manifestation).
	SymOverflow
	// SymReplica: a TMR replica deviated from the voted majority.
	SymReplica
	// SymInternal: a job-internal assertion flagged the job's transducer
	// (only emitted when the job-internal-assertions extension is
	// enabled; Section III-D).
	SymInternal

	numKinds
)

func (k Kind) String() string {
	switch k {
	case SymOmission:
		return "omission"
	case SymCorruption:
		return "corruption"
	case SymTiming:
		return "timing"
	case SymValue:
		return "value"
	case SymDeviation:
		return "deviation"
	case SymStale:
		return "stale"
	case SymStuck:
		return "stuck"
	case SymOverflow:
		return "overflow"
	case SymReplica:
		return "replica"
	case SymInternal:
		return "internal-assertion"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Symptom is one aggregated observation disseminated on the virtual
// diagnostic network: per detection round, per (kind, subject, channel),
// the observing component sends one record with a count.
type Symptom struct {
	Kind Kind
	// Observer is the hardware FRU index of the detecting component.
	Observer FRUIndex
	// Subject is the FRU the symptom concerns (component for frame-level
	// symptoms, job for port-level symptoms).
	Subject FRUIndex
	// Channel is the affected channel, 0 for frame-level symptoms.
	Channel vnet.ChannelID
	// Granule is the action-lattice index (round) of the observation on
	// the sparse time base.
	Granule int64
	// At is the send instant (diagnostic bookkeeping, not part of the
	// judged state).
	At sim.Time
	// Count aggregates same-kind observations within the granule.
	Count uint16
	// Deviation carries the value-domain magnitude (bits flipped,
	// normalized overshoot, ...), maximum over the aggregate.
	Deviation float32
}

func (s Symptom) String() string {
	return fmt.Sprintf("sym{%s subj=%d obs=%d ch=%d g=%d n=%d dev=%.3f}",
		s.Kind, s.Subject, s.Observer, s.Channel, s.Granule, s.Count, s.Deviation)
}

// symptomWireBytes is the encoded size of one symptom record.
const symptomWireBytes = 1 + 2 + 2 + 2 + 8 + 2 + 4

// appendWire appends the symptom's wire encoding (its form on the
// diagnostic network) to dst and returns the extended
// slice. Monitors pass a per-monitor scratch buffer: the network copies the
// payload on Send, so the buffer is immediately reusable.
func (s Symptom) appendWire(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, symptomWireBytes)...)
	b := dst[n:]
	b[0] = byte(s.Kind)
	binary.BigEndian.PutUint16(b[1:3], uint16(s.Observer))
	binary.BigEndian.PutUint16(b[3:5], uint16(s.Subject))
	binary.BigEndian.PutUint16(b[5:7], uint16(s.Channel))
	binary.BigEndian.PutUint64(b[7:15], uint64(s.Granule))
	binary.BigEndian.PutUint16(b[15:17], s.Count)
	binary.BigEndian.PutUint32(b[17:21], math.Float32bits(s.Deviation))
	return dst
}

// DecodeSymptom parses a symptom record; ok=false on malformed input.
func DecodeSymptom(b []byte) (Symptom, bool) {
	if len(b) != symptomWireBytes || Kind(b[0]) >= numKinds {
		return Symptom{}, false
	}
	return Symptom{
		Kind:      Kind(b[0]),
		Observer:  FRUIndex(binary.BigEndian.Uint16(b[1:3])),
		Subject:   FRUIndex(binary.BigEndian.Uint16(b[3:5])),
		Channel:   vnet.ChannelID(binary.BigEndian.Uint16(b[5:7])),
		Granule:   int64(binary.BigEndian.Uint64(b[7:15])),
		Count:     binary.BigEndian.Uint16(b[15:17]),
		Deviation: math.Float32frombits(binary.BigEndian.Uint32(b[17:21])),
	}, true
}
