package diagnosis

import (
	"fmt"

	"decos/internal/ckpt"
	"decos/internal/core"
)

// Checkpointing of the diagnostic subsystem. The registry, tracker
// topology and pipeline wiring are configuration wired by the engine's
// build path and kept by a reset; a checkpoint carries the evidence: the distributed-state
// history, recurrence scores, trust trajectories, standing verdicts, and
// every monitor's incremental-scan cursors. A checkpoint is taken at a
// round boundary, after monitors flushed and the assessor drained, so
// the only in-flight symptom state is the accumulator of monitors on
// dead nodes (whose round hook did not run) — it is carried too.

// codeSymptom codes one symptom of a registry of nFRU FRUs.
func codeSymptom(c *ckpt.Coder, s *Symptom, nFRU int) {
	ckpt.Enum(c, &s.Kind, numKinds)
	ckpt.Index(c, &s.Observer, nFRU, "observer")
	ckpt.Index(c, &s.Subject, nFRU, "subject")
	ckpt.Index(c, &s.Channel, 1<<16, "channel")
	ckpt.Varint(c, &s.Granule)
	ckpt.Varint(c, &s.At)
	ckpt.Uvarint(c, &s.Count)
	c.Float32(&s.Deviation)
}

// Code implements ckpt.Snapshotter: the distributed-state history
// (subjects ascending, each list already granule-sorted by construction).
func (h *History) Code(c *ckpt.Coder) error {
	if c.Decoding() {
		h.reset()
	}
	ckpt.Varint(c, &h.latest)
	ckpt.Uvarint(c, &h.total)
	nFRU := len(h.bySubject)
	ckpt.Sparse(c, nFRU, func(subj int) bool { return h.present[subj] }, func(c *ckpt.Coder, subj int) {
		if ckpt.Index(c, &subj, nFRU, "subject"); c.Err() == nil {
			h.present[subj] = true
			ckpt.Log(c, &h.bySubject[subj], 1<<24, func(c *ckpt.Coder, s *Symptom) { codeSymptom(c, s, nFRU) })
		}
	})
	return c.Err()
}

// code codes the recurrence scores of a registry of nFRU FRUs in
// FRU-index order.
func (a *AlphaCount) code(c *ckpt.Coder, nFRU int) {
	ckpt.SortedMap(c, &a.score, nFRU,
		func(c *ckpt.Coder, f *FRUIndex) { ckpt.Index(c, f, nFRU, "FRU") },
		func(c *ckpt.Coder, _ FRUIndex, v *float64) { c.Float64(v) })
}

// codeVerdict codes one verdict; its FRU identity is registry-derived,
// not wire state.
func (ad *Adviser) codeVerdict(c *ckpt.Coder, v *Verdict) {
	ckpt.Varint(c, &v.Epoch)
	ckpt.Varint(c, &v.At)
	ckpt.Index(c, &v.Subject, ad.reg.Len(), "verdict subject")
	ckpt.Enum(c, &v.Class, core.NumFaultClasses)
	ckpt.Enum(c, &v.Persistence, core.NumPersistences)
	c.String(&v.Pattern)
	c.Float64(&v.Confidence)
	ckpt.Enum(c, &v.Action, core.NumActions)
	if c.Decoding() && c.Err() == nil {
		v.FRU = ad.reg.FRU(v.Subject)
	}
}

func codeTrustPoint(c *ckpt.Coder, p *TrustPoint) {
	ckpt.Varint(c, &p.At)
	ckpt.Varint(c, &p.Granule)
	c.Float64((*float64)(&p.Trust))
}

// Code implements ckpt.Snapshotter: trust levels and trajectories
// (registry order), standing verdicts (subject order) and the emission
// log.
func (ad *Adviser) Code(c *ckpt.Coder) error {
	ckpt.Varint(c, &ad.epoch)
	c.Count(ad.reg.Len(), "FRUs")
	for f := range ad.trustHist {
		c.Float64(&ad.trust[f])
		ckpt.Slice(c, &ad.trustHist[f], 1<<24, codeTrustPoint)
	}
	if c.Decoding() {
		clear(ad.current)
		clear(ad.hasCurrent)
	}
	ckpt.Sparse(c, len(ad.current), func(f int) bool { return ad.hasCurrent[f] }, func(c *ckpt.Coder, f int) {
		var v Verdict
		if !c.Decoding() {
			v = ad.current[f]
		}
		if ad.codeVerdict(c, &v); c.Decoding() && c.Err() == nil {
			ad.current[v.Subject], ad.hasCurrent[v.Subject] = v, true
		}
	})
	ckpt.Slice(c, &ad.emitted, 1<<20, ad.codeVerdict)
	return c.Err()
}

// Code implements ckpt.Snapshotter: the whole assessment pipeline,
// collector counters, history, recurrence scores and the adviser.
func (a *Assessor) Code(c *ckpt.Coder) error {
	c.Int(&a.SymptomsReceived)
	c.Int(&a.DecodeFailures)
	a.Hist.Code(c)
	a.Alpha.code(c, a.Reg.Len())
	a.SW.code(c, a.Reg.Len())
	return a.Adviser.Code(c)
}

// Code implements ckpt.Snapshotter: one monitor's scan cursors and
// counters. The tracker sets are structural (derived from the build
// path) and carried only as counts for validation.
func (m *Monitor) Code(c *ckpt.Coder) error {
	nFRU := m.reg.Len()
	c.Int(&m.SymptomsSent)
	// In-flight accumulator: empty after a flush, but a monitor on a dead
	// node may hold observations its skipped round hook never flushed.
	ckpt.Slice(c, &m.acc, 1<<20, func(c *ckpt.Coder, a *accEntry) {
		ckpt.Enum(c, &a.kind, numKinds)
		ckpt.Index(c, &a.subject, nFRU, "accumulator subject")
		ckpt.Index(c, &a.channel, 1<<16, "accumulator channel")
		c.Int(&a.count)
		c.Float64(&a.dev)
	})
	for i := 1; i < len(m.acc) && c.Decoding(); i++ {
		if !accKeyLess(m.acc[i-1].accKey, m.acc[i].accKey) {
			c.Fail(fmt.Errorf("diagnosis: checkpoint accumulator of node %d is not in key order", m.Node))
		}
	}
	c.Count(len(m.ports), "port trackers")
	for _, pt := range m.ports {
		ckpt.Uvarint(c, &pt.lastSeq)
		c.Bool(&pt.haveSeq)
		ckpt.Varint(c, &pt.lastChangeAt)
		c.Bytes(&pt.lastValue)
		ckpt.Varint(c, &pt.sameValue)
		c.Int(&pt.prevCRC)
		c.Int(&pt.prevOverflows)
		c.Int(&pt.prevReceived)
		c.Bool(&pt.everReceived)
		ckpt.Varint(c, &pt.stuckReported)
		c.Bool(&pt.staleReporting)
	}
	c.Count(len(m.voters), "voter trackers")
	for _, vt := range m.voters {
		for i := range vt.prevDisagree {
			c.Int(&vt.prevDisagree[i])
		}
	}
	c.Count(len(m.txs), "tx trackers")
	for _, tx := range m.txs {
		c.Int(&tx.prev)
	}
	ckpt.Slice(c, &m.LocalLog, 1<<24, func(c *ckpt.Coder, s *Symptom) { codeSymptom(c, s, nFRU) })
	return c.Err()
}

// Code implements ckpt.Snapshotter: the wired diagnostic architecture,
// the assessment pipeline followed by every monitor in component order.
func (dg *Diagnostics) Code(c *ckpt.Coder) error {
	dg.Assessor.Code(c)
	c.Count(len(dg.Monitors), "monitors")
	for _, m := range dg.Monitors {
		m.Code(c)
	}
	return c.Err()
}
