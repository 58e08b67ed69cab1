package diagnosis

import (
	"bytes"
	"math"
	"slices"

	"decos/internal/component"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// DeviationWarnFraction is the normalized distance from the spec midpoint
// beyond which a still-conformant value raises a deviation symptom ("at the
// verge of becoming incorrect", Fig. 8).
const DeviationWarnFraction = 0.85

// Monitor is the local detection mechanism of the diagnostic services on
// one component: it observes the component's LIF-visible state (frame
// statuses, port statistics, voter statistics), aggregates deviations per
// round, and disseminates symptom records on the component's channel of the
// virtual diagnostic network.
type Monitor struct {
	Node tt.NodeID
	// Chan is the monitor's symptom channel on the diagnostic network.
	Chan vnet.ChannelID

	reg  *Registry
	cl   *component.Cluster
	net  *vnet.Network
	self FRUIndex

	// acc aggregates the round's observations, one entry per key, kept
	// in accKeyLess order: the order flush sends them in.
	acc []accEntry
	// encBuf is flush's encoding scratch, reused across rounds.
	encBuf []byte

	ports  []*portTracker
	voters []*voterTracker
	txs    []*txTracker
	// selfCheckers are the component's jobs exposing internal assertions
	// (only populated when the extension is enabled).
	selfCheckers []selfTracker

	// SymptomsSent counts emitted symptom records.
	SymptomsSent int
	// LocalLog, when enabled, retains every emitted symptom for tests and
	// offline analysis.
	LocalLog []Symptom
	KeepLog  bool
}

type accKey struct {
	kind    Kind
	subject FRUIndex
	channel vnet.ChannelID
}

type accEntry struct {
	accKey
	count int
	dev   float64
}

type portTracker struct {
	port  *vnet.InPort
	meta  ChannelMeta
	owner FRUIndex // consumer job FRU owning the port

	lastSeq        uint32
	haveSeq        bool
	lastChangeAt   int64 // round of last sequence advance
	lastValue      []byte
	sameValue      int64
	prevCRC        int
	prevOverflows  int
	prevReceived   int
	everReceived   bool
	stuckReported  int64
	staleReporting bool
}

type voterTracker struct {
	voter *component.VoterJob
	// replicaSubject[i] is the producer job FRU of replica channel i.
	replicaSubject [3]FRUIndex
	replicaChannel [3]vnet.ChannelID
	prevDisagree   [3]int
}

type txTracker struct {
	ep      *vnet.Endpoint
	subject FRUIndex
	channel vnet.ChannelID
	prev    int
}

type selfTracker struct {
	checker component.SelfChecker
	job     *component.Instance
	subject FRUIndex
}

// reset returns the monitor to its just-built state: nothing
// accumulated or sent, every tracker's cursors at their start.
func (m *Monitor) reset() {
	m.acc = m.acc[:0]
	m.SymptomsSent = 0
	m.LocalLog = m.LocalLog[:0]
	for _, pt := range m.ports {
		*pt = portTracker{port: pt.port, meta: pt.meta, owner: pt.owner, lastValue: pt.lastValue[:0]}
	}
	for _, vt := range m.voters {
		vt.prevDisagree = [3]int{}
	}
	for _, tx := range m.txs {
		tx.prev = 0
	}
}

func (m *Monitor) observe(k Kind, subject FRUIndex, ch vnet.ChannelID, count int, dev float64) {
	if count <= 0 {
		return
	}
	a := m.entry(accKey{kind: k, subject: subject, channel: ch})
	a.count += count
	if dev > a.dev {
		a.dev = dev
	}
}

// entry returns the round's accumulator for key, inserting an empty one
// at its sorted position if the key is new.
func (m *Monitor) entry(key accKey) *accEntry {
	i := 0
	for i < len(m.acc) && accKeyLess(m.acc[i].accKey, key) {
		i++
	}
	if i == len(m.acc) || m.acc[i].accKey != key {
		m.acc = slices.Insert(m.acc, i, accEntry{accKey: key})
	}
	return &m.acc[i]
}

// onSlot ingests the frame status this component observed for one slot.
func (m *Monitor) onSlot(f *tt.Frame, st tt.FrameStatus) {
	if f.Sender == tt.NoNode || f.Sender == m.Node || !st.Failed() {
		return
	}
	subj, ok := m.reg.HardwareIndex(f.Sender)
	if !ok {
		return
	}
	switch st {
	case tt.FrameOmitted:
		m.observe(SymOmission, subj, 0, 1, 0)
	case tt.FrameCorrupted:
		m.observe(SymCorruption, subj, 0, 1, float64(f.CorruptBits))
	case tt.FrameTiming:
		m.observe(SymTiming, subj, 0, 1, 0)
	}
}

// onRound scans port-level state and flushes the round's symptoms onto the
// diagnostic network.
func (m *Monitor) onRound(round int64, now sim.Time) {
	for _, pt := range m.ports {
		m.scanPort(pt, round)
	}
	for _, vt := range m.voters {
		m.scanVoter(vt)
	}
	for _, tx := range m.txs {
		d := tx.ep.TxOverflows - tx.prev
		tx.prev = tx.ep.TxOverflows
		m.observe(SymOverflow, tx.subject, tx.channel, d, 0)
	}
	for _, sc := range m.selfCheckers {
		if sc.job.Halted {
			continue
		}
		if r := sc.checker.SelfCheck(); r.TransducerSuspect {
			m.observe(SymInternal, sc.subject, 0, 1, 1)
		}
	}
	m.flush(round, now)
}

func (m *Monitor) scanPort(pt *portTracker, round int64) {
	st := &pt.port.Stats
	spec := pt.meta.Spec

	// Value-domain corruption at message granularity. Aggregated under
	// the same key as the frame-level corruption symptom (channel 0):
	// both evidence the same producer-side damage, and one record per
	// round keeps the diagnostic network within its bandwidth budget
	// under heavy fault activity.
	if d := st.CRCFailures - pt.prevCRC; d > 0 {
		m.observe(SymCorruption, pt.meta.ProducerComp, 0, d, 1)
	}
	pt.prevCRC = st.CRCFailures

	// Receive-queue overflow (configuration fault manifestation at the
	// consumer's port).
	if d := st.Overflows - pt.prevOverflows; d > 0 {
		m.observe(SymOverflow, pt.owner, pt.port.Channel, d, 0)
	}
	pt.prevOverflows = st.Overflows

	received := st.Received - pt.prevReceived
	pt.prevReceived = st.Received
	if received > 0 {
		pt.everReceived = true
	}

	// Freshness tracking (sequence advance).
	seqAdvanced := false
	if received > 0 {
		if !pt.haveSeq || st.LastSeq != pt.lastSeq {
			seqAdvanced = true
			pt.lastSeq = st.LastSeq
			pt.haveSeq = true
			pt.lastChangeAt = round
		}
	}

	// Staleness: the producer's state stopped updating although the
	// channel promises MaxAgeRounds freshness.
	if spec.MaxAgeRounds > 0 && pt.everReceived {
		if age := round - pt.lastChangeAt; age > spec.MaxAgeRounds {
			m.observe(SymStale, pt.meta.ProducerJob, pt.port.Channel, 1, float64(age))
			pt.staleReporting = true
		} else if pt.staleReporting && seqAdvanced {
			pt.staleReporting = false
		}
	}

	// Value-domain checks on the newest valid value.
	if received > 0 && st.LastWasValid && len(st.LastValue) == 8 {
		v := vnet.Message{Payload: st.LastValue}.Float()
		if spec.Max > spec.Min {
			half := (spec.Max - spec.Min) / 2
			mid := spec.Min + half
			switch {
			case !spec.Conforms(v):
				over := v - spec.Max
				if v < spec.Min {
					over = spec.Min - v
				}
				if v != v { // NaN
					over = half
				}
				m.observe(SymValue, pt.meta.ProducerJob, pt.port.Channel, 1, over/half)
			default:
				if pos := math.Abs(v-mid) / half; pos >= DeviationWarnFraction {
					m.observe(SymDeviation, pt.meta.ProducerJob, pt.port.Channel, 1, pos)
				}
			}
		}
		// Stuck-at plausibility for dynamic signals.
		if spec.StuckRounds > 0 {
			if seqAdvanced && bytes.Equal(st.LastValue, pt.lastValue) {
				pt.sameValue++
			} else if seqAdvanced {
				pt.sameValue = 0
				pt.stuckReported = 0
			}
			pt.lastValue = append(pt.lastValue[:0], st.LastValue...)
			if pt.sameValue >= spec.StuckRounds && round-pt.stuckReported >= spec.StuckRounds {
				m.observe(SymStuck, pt.meta.ProducerJob, pt.port.Channel, 1, float64(pt.sameValue))
				pt.stuckReported = round
			}
		}
	}
}

func (m *Monitor) scanVoter(vt *voterTracker) {
	for i := 0; i < 3; i++ {
		d := vt.voter.Disagreements[i] - vt.prevDisagree[i]
		vt.prevDisagree[i] = vt.voter.Disagreements[i]
		m.observe(SymReplica, vt.replicaSubject[i], vt.replicaChannel[i], d, 0)
	}
}

// flush encodes the round's aggregated symptoms and sends them on the
// diagnostic network in deterministic order.
func (m *Monitor) flush(round int64, now sim.Time) {
	for _, v := range m.acc {
		count := v.count
		if count > 0xffff {
			count = 0xffff
		}
		s := Symptom{
			Kind:      v.kind,
			Observer:  m.self,
			Subject:   v.subject,
			Channel:   v.channel,
			Granule:   round,
			At:        now,
			Count:     uint16(count),
			Deviation: float32(v.dev),
		}
		// The network copies the payload on Send, so one scratch buffer
		// serves every record.
		m.encBuf = s.appendWire(m.encBuf[:0])
		m.net.Send(m.Chan, m.encBuf, now)
		m.SymptomsSent++
		if m.KeepLog {
			m.LocalLog = append(m.LocalLog, s)
		}
	}
	m.acc = m.acc[:0]
}

func accKeyLess(a, b accKey) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.subject != b.subject {
		return a.subject < b.subject
	}
	return a.channel < b.channel
}
