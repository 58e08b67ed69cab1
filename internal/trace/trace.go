// Package trace records a structured event stream of a cluster run:
// failed frames, disseminated symptoms, verdict emissions, trust samples
// and injection activations. The stream is the offline interface to the
// OEM's warranty-analysis tooling the paper's Section V-B sketches
// (off-line analysis of returned units informing fault-pattern design) —
// and a debugging aid for the simulator itself. It has two encodings
// behind one Sink interface: JSON lines (NDJSONSink, human-readable, the
// interop and archival format) and the compact binary DCS-B format
// (BinarySink, see binary.go; what fleet campaigns record and uplink).
// Every reader sniffs which one it is given (OpenReader).
package trace

import (
	"fmt"
	"io"

	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/tt"
)

// Event is one trace record. Fields are populated per Kind.
type Event struct {
	T    int64  `json:"t_us"`
	Kind string `json:"kind"` // frame | symptom | verdict | trust | injection | vehicle | truth | advice

	// Vehicle identifies the originating vehicle in fleet traces
	// (1-based; 0 = single-vehicle trace). Stamped on every event when
	// Options.Vehicle is set, so mixed fleet streams remain shardable.
	Vehicle int `json:"vehicle,omitempty"`

	// Source names the advisor an advice event came from ("decos"/"obd").
	Source string `json:"source,omitempty"`

	// frame
	Sender *int   `json:"sender,omitempty"`
	Slot   *int   `json:"slot,omitempty"`
	Round  *int64 `json:"round,omitempty"`
	Status string `json:"status,omitempty"`

	// symptom
	Symptom  string  `json:"symptom,omitempty"`
	Subject  string  `json:"subject,omitempty"`
	Observer *int    `json:"observer,omitempty"`
	Count    int     `json:"count,omitempty"`
	Dev      float64 `json:"dev,omitempty"`

	// verdict
	Class   string  `json:"class,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
	Action  string  `json:"action,omitempty"`
	Conf    float64 `json:"conf,omitempty"`

	// trust
	Trust *float64 `json:"trust,omitempty"`

	// injection
	Detail string `json:"detail,omitempty"`
}

// Options selects what the recorder captures.
type Options struct {
	// AllFrames records every slot; default records only failed frames.
	AllFrames bool
	// TrustEveryEpochs samples trust levels every N assessment epochs
	// (0 disables trust sampling).
	TrustEveryEpochs int64
	// Vehicle stamps every event with a vehicle identity (1-based) for
	// fleet-scale traces; 0 leaves events unstamped.
	Vehicle int
}

// Recorder feeds trace events into a Sink (NDJSON by default).
type Recorder struct {
	sink Sink
	opts Options

	// ev is the event handed to the sink. Sink.Record may not retain the
	// pointer, so one scratch event serves every record.
	ev Event

	// Events counts written records; Err holds the first write error
	// (recording stops after it).
	Events int
	Err    error

	// Incremental cursors over the injector ledger and the trust-sampling
	// epochs; fields (not closure state) so checkpoints can carry them.
	ledgerSeen     int
	lastTrustEpoch int64
}

// Attach wires an NDJSON recorder onto a cluster (and, optionally, its
// diagnostics and injector — pass nil to skip either). It must be called
// before the first round runs.
func Attach(cl *component.Cluster, d *diagnosis.Diagnostics, inj *faults.Injector, w io.Writer, opts Options) *Recorder {
	return AttachSink(cl, d, inj, NewNDJSONSink(w), opts)
}

// AttachSink is Attach with a caller-chosen back end. A nil or no-op sink
// installs no instrumentation at all: the returned recorder is inert and
// the simulator hot path keeps its zero-allocation contract.
func AttachSink(cl *component.Cluster, d *diagnosis.Diagnostics, inj *faults.Injector, sink Sink, opts Options) *Recorder {
	r := &Recorder{sink: sink, opts: opts}
	if IsNop(sink) {
		return r
	}

	cl.Bus.Observe(func(f *tt.Frame, _ []tt.FrameStatus) {
		if !r.opts.AllFrames && !f.Status.Failed() {
			return
		}
		// One allocation backs all three pointer fields. They stay
		// per-event memory: sinks may keep shallow copies of events.
		at := &struct {
			sender, slot int
			round        int64
		}{int(f.Sender), f.Slot, f.Round}
		r.write(Event{
			T: f.At.Micros(), Kind: "frame",
			Sender: &at.sender, Slot: &at.slot, Round: &at.round, Status: f.Status.String(),
		})
	})

	// The registry is immutable, so each FRU's subject string is rendered
	// once here rather than through fmt on every event.
	var subjects []string
	if d != nil {
		subjects = make([]string, d.Reg.Len())
		for i := range subjects {
			subjects[i] = d.Reg.FRU(diagnosis.FRUIndex(i)).String()
		}
	}

	cl.OnRound(func(round int64, now sim.Time) {
		if inj != nil {
			for _, a := range inj.Ledger()[r.ledgerSeen:] {
				r.write(Event{
					T: now.Micros(), Kind: "injection",
					Class: a.Class.String(), Subject: a.Culprit.String(), Detail: a.Detail,
				})
			}
			r.ledgerSeen = len(inj.Ledger())
		}
		if d == nil {
			return
		}
		if every := r.opts.TrustEveryEpochs; every > 0 {
			if e := d.Assessor.Epoch(); e >= r.lastTrustEpoch+every {
				r.lastTrustEpoch = e
				for i, subject := range subjects {
					tv := float64(d.Assessor.Trust(diagnosis.FRUIndex(i)))
					r.write(Event{
						T: now.Micros(), Kind: "trust",
						Subject: subject, Trust: &tv,
					})
				}
			}
		}
	})

	if d != nil {
		// Per-stage attach points of the assessment pipeline: verdicts are
		// streamed from the adviser stage as they are emitted, symptoms
		// from the collector stage as it ingests them off the virtual
		// diagnostic network.
		d.Assessor.OnVerdict(func(v diagnosis.Verdict) {
			r.write(Event{
				T: v.At.Micros(), Kind: "verdict",
				Subject: subjects[v.Subject], Class: v.Class.String(),
				Pattern: v.Pattern, Action: v.Action.String(), Conf: v.Confidence,
			})
		})
		d.Assessor.OnSymptom(func(s diagnosis.Symptom) {
			obs := int(s.Observer)
			var subject string
			if int(s.Subject) < len(subjects) {
				subject = subjects[s.Subject]
			} else {
				subject = fmt.Sprint(int(s.Subject))
			}
			r.write(Event{
				T: s.At.Micros(), Kind: "symptom",
				Symptom: s.Kind.String(), Subject: subject,
				Observer: &obs, Count: int(s.Count), Dev: float64(s.Deviation),
			})
		})
	}
	return r
}

// Reset re-points an attached recorder at sink and opts for a new run on
// a reset cluster, with its counters and cursors back at the start. The
// sink must not be a no-op one: a recorder attached with one installed no
// instrumentation to re-point.
func (r *Recorder) Reset(sink Sink, opts Options) {
	r.sink, r.opts = sink, opts
	r.Events, r.Err, r.ledgerSeen, r.lastTrustEpoch = 0, nil, 0, 0
}

func (r *Recorder) write(e Event) {
	if r.Err != nil || r.sink == nil {
		return
	}
	if e.Vehicle == 0 {
		e.Vehicle = r.opts.Vehicle
	}
	// Recording &e would move every event to the heap; the scratch
	// event does not escape per call.
	r.ev = e
	if err := r.sink.Record(&r.ev); err != nil {
		r.Err = err
		return
	}
	r.Events++
}
