package diagnosis

import "decos/internal/vnet"

// Collector is the first stage of the staged assessment pipeline — the
// paper's symptom-collection phase (Fig. 9): it ingests the symptom
// stream of the virtual diagnostic network and correlates it into the
// granule-indexed distributed-state history the classification and
// advice stages evaluate.
type Collector struct {
	// Hist is the distributed-state history: every ingested symptom,
	// granule-sorted per subject, pruned to the retention horizon.
	Hist *History

	ports []*vnet.InPort

	// SymptomsReceived counts decoded symptom records.
	SymptomsReceived int
	// DecodeFailures counts undecodable diagnostic messages (corrupted
	// diagnostic traffic).
	DecodeFailures int

	symptomHooks []func(Symptom)
}

// NewCollector creates a collector for the given number of subject FRUs,
// retaining the given granule horizon.
func NewCollector(retainGranules int64, subjects int) *Collector {
	return &Collector{Hist: NewHistory(retainGranules, subjects)}
}

// Subscribe adds a diagnostic in-port the collector drains every round.
func (c *Collector) Subscribe(p *vnet.InPort) { c.ports = append(c.ports, p) }

// OnSymptom registers the collector stage's attach point, invoked for
// every ingested symptom (trace recording, live dashboards). With no
// hook registered the ingest path pays nothing beyond a nil-slice range.
func (c *Collector) OnSymptom(f func(Symptom)) { c.symptomHooks = append(c.symptomHooks, f) }

// Ingest adds one symptom to the distributed state (used directly by tests
// and by the fast-path campaign driver; the attached cluster path goes
// through the diagnostic network ports).
func (c *Collector) Ingest(s Symptom) {
	c.Hist.Add(s)
	c.SymptomsReceived++
	for _, f := range c.symptomHooks {
		f(s)
	}
}

// Drain decodes everything queued on the diagnostic in-ports.
func (c *Collector) Drain() {
	for _, p := range c.ports {
		for {
			m, ok := p.Receive()
			if !ok {
				break
			}
			s, ok := DecodeSymptom(m.Payload)
			if !ok {
				c.DecodeFailures++
				continue
			}
			c.Ingest(s)
		}
	}
}
