package diagnosis

import (
	"fmt"
	"sort"

	"decos/internal/ckpt"
	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/vnet"
)

// Checkpointing of the diagnostic subsystem. The registry, tracker
// topology and pipeline wiring are configuration rebuilt by the engine's
// build path; a checkpoint carries the evidence: the distributed-state
// history, recurrence scores, trust trajectories, standing verdicts, and
// every monitor's incremental-scan cursors. A checkpoint is taken at a
// round boundary, after monitors flushed and the assessor drained, so
// the only in-flight symptom state is the accumulator of monitors on
// dead nodes (whose round hook did not run) — it is carried too.

func encodeSymptom(e *ckpt.Encoder, s *Symptom) {
	e.Uvarint(uint64(s.Kind))
	e.Int(int(s.Observer))
	e.Int(int(s.Subject))
	e.Int(int(s.Channel))
	e.Varint(s.Granule)
	e.Varint(int64(s.At))
	e.Uvarint(uint64(s.Count))
	e.Float32(s.Deviation)
}

func decodeSymptom(d *ckpt.Decoder) Symptom {
	return Symptom{
		Kind:      Kind(d.Uvarint()),
		Observer:  FRUIndex(d.Int()),
		Subject:   FRUIndex(d.Int()),
		Channel:   vnet.ChannelID(d.Int()),
		Granule:   d.Varint(),
		At:        sim.Time(d.Varint()),
		Count:     uint16(d.Uvarint()),
		Deviation: d.Float32(),
	}
}

// Snapshot serializes the distributed-state history (subjects ascending,
// each list already granule-sorted by construction).
func (h *History) Snapshot(e *ckpt.Encoder) {
	e.Varint(h.latest)
	e.Uvarint(h.total)
	n := 0
	for _, p := range h.present {
		if p {
			n++
		}
	}
	e.Int(n)
	for subj, p := range h.present {
		if !p {
			continue
		}
		list := &h.bySubject[subj]
		e.Int(subj)
		e.Int(list.Len())
		for k := 0; k < list.NumSegs(); k++ {
			seg := list.Seg(k)
			for i := range seg {
				encodeSymptom(e, &seg[i])
			}
		}
	}
}

// Restore replaces the history's content.
func (h *History) Restore(d *ckpt.Decoder) error {
	h.reset()
	h.latest = d.Varint()
	h.total = d.Uvarint()
	n := d.Len(1 << 20)
	for i := 0; i < n && d.Err() == nil; i++ {
		subj := d.Int()
		if d.Err() != nil {
			break
		}
		if subj < 0 || subj >= len(h.bySubject) {
			return fmt.Errorf("diagnosis: checkpoint history names subject %d, registry has %d FRUs", subj, len(h.bySubject))
		}
		nl := d.Len(1 << 24)
		list := &h.bySubject[subj]
		list.Reset()
		list.Reserve(nl)
		for k := 0; k < nl && d.Err() == nil; k++ {
			list.Append(decodeSymptom(d))
		}
		h.present[subj] = true
	}
	return d.Err()
}

// Snapshot serializes the recurrence scores in FRU-index order.
func (a *AlphaCount) Snapshot(e *ckpt.Encoder) {
	idx := make([]int, 0, len(a.score))
	for f := range a.score {
		idx = append(idx, int(f))
	}
	sort.Ints(idx)
	e.Int(len(idx))
	for _, f := range idx {
		e.Int(f)
		e.Float64(a.score[FRUIndex(f)])
	}
}

// Restore replaces the recurrence scores.
func (a *AlphaCount) Restore(d *ckpt.Decoder) error {
	clear(a.score)
	n := d.Len(1 << 20)
	for i := 0; i < n && d.Err() == nil; i++ {
		f := FRUIndex(d.Int())
		a.score[f] = d.Float64()
	}
	return d.Err()
}

func encodeVerdict(e *ckpt.Encoder, v *Verdict) {
	e.Varint(v.Epoch)
	e.Varint(int64(v.At))
	e.Int(int(v.Subject))
	e.Int(int(v.Class))
	e.Int(int(v.Persistence))
	e.String(v.Pattern)
	e.Float64(v.Confidence)
	e.Int(int(v.Action))
}

func (ad *Adviser) decodeVerdict(d *ckpt.Decoder) Verdict {
	v := Verdict{
		Epoch:       d.Varint(),
		At:          sim.Time(d.Varint()),
		Subject:     FRUIndex(d.Int()),
		Class:       core.FaultClass(d.Int()),
		Persistence: core.Persistence(d.Int()),
		Pattern:     d.String(),
		Confidence:  d.Float64(),
		Action:      core.MaintenanceAction(d.Int()),
	}
	// The FRU identity is registry-derived, not wire state.
	if d.Err() == nil && int(v.Subject) < ad.reg.Len() {
		v.FRU = ad.reg.FRU(v.Subject)
	}
	return v
}

// Snapshot serializes trust levels and trajectories (registry order),
// standing verdicts (subject order) and the emission log.
func (ad *Adviser) Snapshot(e *ckpt.Encoder) {
	e.Varint(ad.epoch)
	e.Int(ad.reg.Len())
	for f, hist := range ad.trustHist {
		e.Float64(ad.trust[f])
		e.Int(len(hist))
		for _, p := range hist {
			e.Varint(int64(p.At))
			e.Varint(p.Granule)
			e.Float64(float64(p.Trust))
		}
	}
	cur := ad.CurrentAll()
	e.Int(len(cur))
	for i := range cur {
		encodeVerdict(e, &cur[i])
	}
	e.Int(len(ad.emitted))
	for i := range ad.emitted {
		encodeVerdict(e, &ad.emitted[i])
	}
}

// Restore replaces the adviser's state.
func (ad *Adviser) Restore(d *ckpt.Decoder) error {
	ad.epoch = d.Varint()
	n := d.Len(1 << 20)
	if d.Err() == nil && n != ad.reg.Len() {
		return fmt.Errorf("diagnosis: checkpoint has %d FRUs, registry has %d", n, ad.reg.Len())
	}
	clear(ad.trustHist)
	for f := 0; f < n && d.Err() == nil; f++ {
		ad.trust[f] = d.Float64()
		hist, nh := ckpt.MakeSlice[TrustPoint](d, 1<<24)
		for k := 0; k < nh && d.Err() == nil; k++ {
			hist = append(hist, TrustPoint{
				At:      sim.Time(d.Varint()),
				Granule: d.Varint(),
				Trust:   core.TrustLevel(d.Float64()),
			})
		}
		ad.trustHist[f] = hist
	}
	clear(ad.current)
	clear(ad.hasCurrent)
	nc := d.Len(1 << 20)
	for i := 0; i < nc && d.Err() == nil; i++ {
		v := ad.decodeVerdict(d)
		if d.Err() != nil {
			break
		}
		if int(v.Subject) >= len(ad.current) {
			return fmt.Errorf("diagnosis: checkpoint has a standing verdict for FRU %d, registry has %d", v.Subject, len(ad.current))
		}
		ad.current[v.Subject], ad.hasCurrent[v.Subject] = v, true
	}
	ne := d.Len(1 << 20)
	ad.emitted = ad.emitted[:0]
	for i := 0; i < ne && d.Err() == nil; i++ {
		ad.emitted = append(ad.emitted, ad.decodeVerdict(d))
	}
	return d.Err()
}

// Snapshot serializes the whole assessment pipeline: collector counters,
// history, recurrence scores and the adviser.
func (a *Assessor) Snapshot(e *ckpt.Encoder) {
	e.Int(a.SymptomsReceived)
	e.Int(a.DecodeFailures)
	a.Hist.Snapshot(e)
	a.Alpha.Snapshot(e)
	a.SW.Snapshot(e)
	a.Adviser.Snapshot(e)
}

// Restore replaces the pipeline's state.
func (a *Assessor) Restore(d *ckpt.Decoder) error {
	a.SymptomsReceived = d.Int()
	a.DecodeFailures = d.Int()
	if err := a.Hist.Restore(d); err != nil {
		return err
	}
	if err := a.Alpha.Restore(d); err != nil {
		return err
	}
	if err := a.SW.Restore(d); err != nil {
		return err
	}
	return a.Adviser.Restore(d)
}

// Snapshot serializes one monitor's scan cursors and counters. The
// tracker sets are structural (derived from the build path) and carried
// only as counts for validation.
func (m *Monitor) Snapshot(e *ckpt.Encoder) {
	e.Int(m.SymptomsSent)
	// In-flight accumulator: empty after a flush, but a monitor on a dead
	// node may hold observations its skipped round hook never flushed.
	e.Int(len(m.acc))
	for _, v := range m.acc {
		e.Uvarint(uint64(v.kind))
		e.Int(int(v.subject))
		e.Int(int(v.channel))
		e.Int(v.count)
		e.Float64(v.dev)
	}
	e.Int(len(m.ports))
	for _, pt := range m.ports {
		e.Uvarint(uint64(pt.lastSeq))
		e.Bool(pt.haveSeq)
		e.Varint(pt.lastChangeAt)
		e.Bytes8(pt.lastValue)
		e.Varint(pt.sameValue)
		e.Int(pt.prevCRC)
		e.Int(pt.prevOverflows)
		e.Int(pt.prevReceived)
		e.Bool(pt.everReceived)
		e.Varint(pt.stuckReported)
		e.Bool(pt.staleReporting)
	}
	e.Int(len(m.voters))
	for _, vt := range m.voters {
		for i := 0; i < 3; i++ {
			e.Int(vt.prevDisagree[i])
		}
	}
	e.Int(len(m.txs))
	for _, tx := range m.txs {
		e.Int(tx.prev)
	}
	e.Int(len(m.LocalLog))
	for i := range m.LocalLog {
		encodeSymptom(e, &m.LocalLog[i])
	}
}

// Restore replaces the monitor's cursors and counters.
func (m *Monitor) Restore(d *ckpt.Decoder) error {
	m.SymptomsSent = d.Int()
	m.acc = m.acc[:0]
	na := d.Len(1 << 20)
	for i := 0; i < na && d.Err() == nil; i++ {
		a := m.entry(accKey{
			kind:    Kind(d.Uvarint()),
			subject: FRUIndex(d.Int()),
			channel: vnet.ChannelID(d.Int()),
		})
		a.count, a.dev = d.Int(), d.Float64()
	}
	np := d.Len(1 << 20)
	if d.Err() == nil && np != len(m.ports) {
		return fmt.Errorf("diagnosis: checkpoint has %d port trackers on node %d, monitor has %d", np, m.Node, len(m.ports))
	}
	for i := 0; i < np && d.Err() == nil; i++ {
		pt := m.ports[i]
		pt.lastSeq = uint32(d.Uvarint())
		pt.haveSeq = d.Bool()
		pt.lastChangeAt = d.Varint()
		if b := d.Bytes8(); len(b) > 0 {
			pt.lastValue = append(pt.lastValue[:0], b...)
		} else {
			pt.lastValue = pt.lastValue[:0]
		}
		pt.sameValue = d.Varint()
		pt.prevCRC = d.Int()
		pt.prevOverflows = d.Int()
		pt.prevReceived = d.Int()
		pt.everReceived = d.Bool()
		pt.stuckReported = d.Varint()
		pt.staleReporting = d.Bool()
	}
	nv := d.Len(1 << 20)
	if d.Err() == nil && nv != len(m.voters) {
		return fmt.Errorf("diagnosis: checkpoint has %d voter trackers on node %d, monitor has %d", nv, m.Node, len(m.voters))
	}
	for i := 0; i < nv && d.Err() == nil; i++ {
		for k := 0; k < 3; k++ {
			m.voters[i].prevDisagree[k] = d.Int()
		}
	}
	nt := d.Len(1 << 20)
	if d.Err() == nil && nt != len(m.txs) {
		return fmt.Errorf("diagnosis: checkpoint has %d tx trackers on node %d, monitor has %d", nt, m.Node, len(m.txs))
	}
	for i := 0; i < nt && d.Err() == nil; i++ {
		m.txs[i].prev = d.Int()
	}
	nl := d.Len(1 << 24)
	m.LocalLog = m.LocalLog[:0]
	for i := 0; i < nl && d.Err() == nil; i++ {
		m.LocalLog = append(m.LocalLog, decodeSymptom(d))
	}
	return d.Err()
}

// Snapshot serializes the wired diagnostic architecture: the assessment
// pipeline followed by every monitor in component order.
func (dg *Diagnostics) Snapshot(e *ckpt.Encoder) {
	dg.Assessor.Snapshot(e)
	e.Int(len(dg.Monitors))
	for _, m := range dg.Monitors {
		m.Snapshot(e)
	}
}

// Restore replaces the architecture's state.
func (dg *Diagnostics) Restore(d *ckpt.Decoder) error {
	if err := dg.Assessor.Restore(d); err != nil {
		return err
	}
	n := d.Len(1 << 16)
	if d.Err() == nil && n != len(dg.Monitors) {
		return fmt.Errorf("diagnosis: checkpoint has %d monitors, cluster has %d", n, len(dg.Monitors))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		if err := dg.Monitors[i].Restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}
