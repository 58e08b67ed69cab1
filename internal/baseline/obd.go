// Package baseline implements a conventional on-board-diagnosis (OBD)
// style diagnoser as the comparison point for the DECOS integrated
// diagnostic architecture. It models the state of practice the paper's
// introduction criticizes: per-ECU diagnostic trouble codes (DTCs) with a
// 500 ms recording threshold, no cross-component correlation, no fault
// classification — and consequently a high no-fault-found ratio, because
// every recorded DTC leads to a component replacement while short
// intermittents are never recorded at all.
package baseline

import (
	"fmt"
	"slices"
	"sort"

	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// DTCThreshold is the recording threshold of current automotive OBD
// systems: transient failures lasting longer than 500 ms are recorded,
// shorter ones cannot be detected (paper Section III-E).
const DTCThreshold = 500 * sim.Millisecond

// DTC is one recorded diagnostic trouble code, attributed to a component.
type DTC struct {
	Component tt.NodeID
	// Code is "U" for communication loss and "P" for signal plausibility.
	Code  string
	First sim.Time
	Count int
}

func (d DTC) String() string {
	return fmt.Sprintf("DTC %s on component %d (first %v, n=%d)", d.Code, d.Component, d.First, d.Count)
}

// OBD is the conventional diagnoser. It observes the same LIF-visible
// state as the DECOS monitors but applies the conventional rules: record a
// DTC when a deviation persists beyond the threshold, attribute it to the
// nearest ECU, and recommend replacing every ECU with a stored DTC.
type OBD struct {
	cl *component.Cluster

	// Continuous-failure spans, dense and sized at Attach: comm per
	// sender node id (communication path), value per distinct watched
	// channel (plausibility), in ascending channel order valueChans.
	comm       []span
	value      []span
	valueChans []vnet.ChannelID

	watched []watchedPort

	dtcs map[tt.NodeID]map[string]*DTC

	// findings is the classification stage's reused output buffer.
	findings []diagnosis.Finding
}

// span is one continuous-failure span. seen marks a span that has been
// tracked at least once: exactly those are carried by a checkpoint.
type span struct {
	seen, failing bool
	since         sim.Time
}

// track advances the span by one observation. When the failure has
// persisted for DTCThreshold it reports the span's start and re-arms the
// span at now, so a persisting fault re-counts.
func (s *span) track(failing bool, now sim.Time) (since sim.Time, record bool) {
	s.seen = true
	switch {
	case !failing:
		s.failing = false
	case !s.failing:
		s.failing, s.since = true, now
	case now.Sub(s.since) >= DTCThreshold:
		since, s.since = s.since, now
		return since, true
	}
	return 0, false
}

type watchedPort struct {
	port *vnet.InPort
	spec component.ChannelSpec
	comp tt.NodeID // producing component (blamed on plausibility DTC)
	slot int       // index of the port's channel span in OBD.value
	prev int       // received count snapshot
}

// Attach builds the OBD diagnoser on a cluster. Like the DECOS
// diagnostics, it must be attached after application configuration and
// before Start.
func Attach(cl *component.Cluster) *OBD {
	o := &OBD{cl: cl, dtcs: make(map[tt.NodeID]map[string]*DTC)}
	// Frames are sent by components only; one span per node id.
	if comps := cl.Components(); len(comps) > 0 {
		o.comm = make([]span, comps[len(comps)-1].ID+1)
	}

	// Watch every application in-port with a spec, blaming the producer's
	// ECU for plausibility violations.
	for _, d := range cl.DASs() {
		for _, j := range d.Jobs {
			for _, ch := range j.InChannels() {
				spec, ok := cl.Spec(ch)
				if !ok {
					continue
				}
				prod := cl.Producer(ch)
				if prod == nil {
					continue
				}
				o.watched = append(o.watched, watchedPort{
					port: j.InPort(ch),
					spec: spec,
					comp: prod.Comp.ID,
				})
				o.valueChans = append(o.valueChans, ch)
			}
		}
	}
	// Ports watching the same channel share its span.
	slices.Sort(o.valueChans)
	o.valueChans = slices.Compact(o.valueChans)
	o.value = make([]span, len(o.valueChans))
	for i := range o.watched {
		o.watched[i].slot, _ = slices.BinarySearch(o.valueChans, o.watched[i].port.Channel)
	}

	// Frame-level communication monitoring.
	cl.Bus.Observe(func(f *tt.Frame, _ []tt.FrameStatus) {
		if f.Sender == tt.NoNode {
			return
		}
		if since, ok := o.comm[f.Sender].track(f.Status.Failed(), cl.Sched.Now()); ok {
			o.recordDTC(f.Sender, "U", since)
		}
	})

	cl.OnRound(func(round int64, now sim.Time) {
		for i := range o.watched {
			w := &o.watched[i]
			received := w.port.Stats.Received - w.prev
			w.prev = w.port.Stats.Received
			bad := false
			if received > 0 && len(w.port.Stats.LastValue) == 8 {
				v := vnet.Message{Payload: w.port.Stats.LastValue}.Float()
				bad = !w.spec.Conforms(v)
			}
			// A plausibility code is stored against the producer ECU.
			if since, ok := o.value[w.slot].track(bad, now); ok {
				o.recordDTC(w.comp, "P", since)
			}
		}
	})
	return o
}

// Reset returns the diagnoser to its just-attached state for a new run on
// a reset cluster: no span tracked, no trouble code stored.
func (o *OBD) Reset() {
	clear(o.comm)
	clear(o.value)
	for i := range o.watched {
		o.watched[i].prev = 0
	}
	clear(o.dtcs)
}

func (o *OBD) recordDTC(comp tt.NodeID, code string, at sim.Time) {
	m := o.dtcs[comp]
	if m == nil {
		m = make(map[string]*DTC)
		o.dtcs[comp] = m
	}
	d := m[code]
	if d == nil {
		m[code] = &DTC{Component: comp, Code: code, First: at, Count: 1}
		return
	}
	d.Count++
}

// DTCs returns all stored trouble codes, ordered by component and code.
func (o *OBD) DTCs() []DTC {
	var out []DTC
	for _, m := range o.dtcs {
		for _, d := range m {
			out = append(out, *d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// HasDTC reports whether the component has any stored code.
func (o *OBD) HasDTC(n tt.NodeID) bool { return len(o.dtcs[n]) > 0 }

// Clear erases the component's stored codes — the workshop clears DTC
// memory after a service, whether or not the service fixed anything.
func (o *OBD) Clear(n tt.NodeID) { delete(o.dtcs, n) }
