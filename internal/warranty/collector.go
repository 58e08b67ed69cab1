// Package warranty is the OEM side of the paper's Section V-B interface:
// a fleet-scale warranty-analysis engine that ingests the diagnostic
// traces of fielded vehicles (NDJSON or binary) and maintains the fleet-level
// aggregates that drive maintenance decisions on-line — the no-fault-found
// audit against the OBD baseline (the paper's headline metric), the 20-80
// software-fault concentration of Section V-C, per-FRU trust trajectories
// and wearout trends, and the Fig. 8 fault-pattern signature statistics.
//
// The store is sharded by vehicle identity with one mutex stripe per
// shard: vehicles are independent, so concurrent uplinks only contend when
// they hash to the same stripe. All aggregates are order-independent
// across vehicles (per-vehicle state is folded in sorted vehicle order at
// summary time), so the result of a concurrent ingest is bit-identical to
// a sequential one — the determinism property of DESIGN §4.2 carried over
// to the fleet backend.
package warranty

import (
	"bufio"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"decos/internal/core"
	"decos/internal/fleet"
	"decos/internal/trace"
)

// DefaultShards is the default number of mutex stripes.
const DefaultShards = 16

// Collector is the concurrent warranty-analysis store.
type Collector struct {
	shards []*shard

	malformed atomic.Int64 // events dropped for unparsable fields
	corrupt   atomic.Int64 // undecodable trace lines skipped by readers
}

// shard is one stripe. Its counters are written under the lock Ingest
// already holds: an atomic shared by every stripe would be a measurable
// tax on the per-event ingest path.
type shard struct {
	mu       sync.Mutex
	vehicles map[int]*vehicleState
	last     *vehicleState // the state the previous event folded into
	events   int64         // events ingested into this shard
	frames   int64         // frame events ingested into this shard
}

// NewCollector creates a collector with the given number of shards
// (values < 1 use DefaultShards).
func NewCollector(shards int) *Collector {
	if shards < 1 {
		shards = DefaultShards
	}
	c := &Collector{shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{vehicles: make(map[int]*vehicleState)}
	}
	return c
}

// The per-vehicle state below is also the snapshot's wire form (Snapshot,
// SnapshotVersion 1): each field carries its JSON name, and a state file
// decodes straight back into these types.

// truthRec is one ground-truth fault of a vehicle (from a "truth" event).
type truthRec struct {
	Class   core.FaultClass `json:"class"`
	Subject string          `json:"subject"`
	Detail  string          `json:"detail,omitempty"`
}

// adviceRec is one advisor's standing advice for a FRU.
type adviceRec struct {
	Action core.MaintenanceAction `json:"action"`
	Class  core.FaultClass        `json:"class"`
}

// trustAcc accumulates one FRU's trust trajectory on one vehicle:
// order-independent regression sums over (t seconds, trust) plus the
// endpoints in stream order, bit-exact on the wire.
type trustAcc struct {
	N      int     `json:"n"`
	SumT   float64 `json:"sum_t"`
	SumY   float64 `json:"sum_y"`
	SumTY  float64 `json:"sum_ty"`
	SumTT  float64 `json:"sum_tt"`
	Min    float64 `json:"min"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	FirstT int64   `json:"first_t_us"`
	LastT  int64   `json:"last_t_us"`
}

func (a *trustAcc) add(tUS int64, y float64) {
	t := float64(tUS) / 1e6
	if a.N == 0 || y < a.Min {
		a.Min = y
	}
	if a.N == 0 || tUS < a.FirstT {
		a.First, a.FirstT = y, tUS
	}
	if a.N == 0 || tUS >= a.LastT {
		a.Last, a.LastT = y, tUS
	}
	a.N++
	a.SumT += t
	a.SumY += y
	a.SumTY += t * y
	a.SumTT += t * t
}

// slope returns the least-squares trust slope in 1/s (0 with < 2 samples
// or a degenerate time base).
func (a *trustAcc) slope() float64 {
	if a.N < 2 {
		return 0
	}
	n := float64(a.N)
	den := n*a.SumTT - a.SumT*a.SumT
	if den == 0 {
		return 0
	}
	return (n*a.SumTY - a.SumT*a.SumY) / den
}

// patternAcc accumulates one ONA pattern's signature statistics on one
// vehicle (Fig. 8: which patterns fire, how often, with what confidence).
type patternAcc struct {
	Count   int     `json:"count"`
	SumConf float64 `json:"sum_conf"`
	// Subjects is the distinct FRUs the pattern blamed, sorted.
	Subjects []string `json:"subjects,omitempty"`
}

// vehicleState is everything retained per vehicle. It is only ever
// mutated under its shard's mutex, in stream order.
type vehicleState struct {
	Vehicle   int  `json:"vehicle"`
	Events    int  `json:"events"`
	SawHeader bool `json:"saw_header,omitempty"`
	FaultFree bool `json:"fault_free,omitempty"`
	Frames    int  `json:"frames,omitempty"`
	Verdicts  int  `json:"verdicts,omitempty"`

	Truths    []truthRec                      `json:"truths,omitempty"`
	Advice    map[string]map[string]adviceRec `json:"advice,omitempty"`    // source -> FRU -> advice
	Symptoms  map[string]int                  `json:"symptoms,omitempty"`  // symptom kind -> count
	Subjects  map[string]*subjectState        `json:"subjects,omitempty"`  // FRU string -> per-FRU state
	Patterns  map[string]*patternAcc          `json:"patterns,omitempty"`  // pattern -> stats
	Incidents []string                        `json:"incidents,omitempty"` // job names of job-inherent verdicts
}

// subjectState is the per-FRU slice of a vehicle's state.
type subjectState struct {
	Trust    trustAcc       `json:"trust"`
	Verdicts int            `json:"verdicts"`
	Patterns map[string]int `json:"patterns,omitempty"`
}

func newVehicleState(id int) *vehicleState {
	return &vehicleState{
		Vehicle:  id,
		Advice:   make(map[string]map[string]adviceRec),
		Symptoms: make(map[string]int),
		Subjects: make(map[string]*subjectState),
		Patterns: make(map[string]*patternAcc),
	}
}

// clone deep-copies the state with every map allocated, so a state
// decoded from a snapshot (where an empty map arrives as nil) can keep
// ingesting. Pattern subject lists are re-sorted and deduplicated, the
// order Ingest's binary-search insert relies on.
func (v *vehicleState) clone() *vehicleState {
	c := newVehicleState(v.Vehicle)
	c.Events, c.SawHeader, c.FaultFree = v.Events, v.SawHeader, v.FaultFree
	c.Frames, c.Verdicts = v.Frames, v.Verdicts
	c.Truths = slices.Clone(v.Truths)
	c.Incidents = slices.Clone(v.Incidents)
	for src, m := range v.Advice {
		am := make(map[string]adviceRec, len(m))
		maps.Copy(am, m)
		c.Advice[src] = am
	}
	maps.Copy(c.Symptoms, v.Symptoms)
	for name, sub := range v.Subjects {
		s := c.subject(name)
		s.Trust, s.Verdicts = sub.Trust, sub.Verdicts
		maps.Copy(s.Patterns, sub.Patterns)
	}
	for name, p := range v.Patterns {
		subjects := slices.Clone(p.Subjects)
		slices.Sort(subjects)
		c.Patterns[name] = &patternAcc{Count: p.Count, SumConf: p.SumConf, Subjects: slices.Compact(subjects)}
	}
	return c
}

func (v *vehicleState) subject(name string) *subjectState {
	s := v.Subjects[name]
	if s == nil {
		s = &subjectState{Patterns: make(map[string]int)}
		v.Subjects[name] = s
	}
	return s
}

func (c *Collector) shardFor(vehicle int) *shard {
	return c.shards[uint(vehicle)%uint(len(c.shards))]
}

// Ingest folds one trace event into the store; it does not retain e.
// Events of one vehicle must arrive in stream order (one uplink per
// vehicle); different vehicles may ingest concurrently.
func (c *Collector) Ingest(e *trace.Event) {
	sh := c.shardFor(e.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// A trace is one vehicle's run of events: most skip the map.
	v := sh.last
	if v == nil || v.Vehicle != e.Vehicle {
		if v = sh.vehicles[e.Vehicle]; v == nil {
			v = newVehicleState(e.Vehicle)
			sh.vehicles[e.Vehicle] = v
		}
		sh.last = v
	}
	v.Events++
	sh.events++

	switch e.Kind {
	case "frame":
		v.Frames++
		sh.frames++
	case "symptom":
		v.Symptoms[e.Symptom] += e.Count
	case "verdict":
		class, err := core.ParseFaultClass(e.Class)
		if err != nil {
			c.malformed.Add(1)
			return
		}
		v.Verdicts++
		s := v.subject(e.Subject)
		s.Verdicts++
		if e.Pattern != "" {
			s.Patterns[e.Pattern]++
			p := v.Patterns[e.Pattern]
			if p == nil {
				p = &patternAcc{}
				v.Patterns[e.Pattern] = p
			}
			p.Count++
			p.SumConf += e.Conf
			if i, found := slices.BinarySearch(p.Subjects, e.Subject); !found {
				p.Subjects = slices.Insert(p.Subjects, i, e.Subject)
			}
		}
		if fleet.Relevant(class) {
			if f, err := core.ParseFRU(e.Subject); err == nil && !f.IsHardware() {
				v.Incidents = append(v.Incidents, f.Job)
			} else {
				c.malformed.Add(1)
			}
		}
	case "trust":
		if e.Trust != nil {
			v.subject(e.Subject).Trust.add(e.T, *e.Trust)
		}
	case "vehicle":
		v.SawHeader = true
		v.FaultFree = e.Detail == "fault-free"
	case "truth":
		class, err := core.ParseFaultClass(e.Class)
		if err != nil {
			c.malformed.Add(1)
			return
		}
		v.Truths = append(v.Truths, truthRec{Class: class, Subject: e.Subject, Detail: e.Detail})
	case "advice":
		action, aerr := core.ParseMaintenanceAction(e.Action)
		class, cerr := core.ParseFaultClass(e.Class)
		if aerr != nil || cerr != nil || e.Source == "" {
			c.malformed.Add(1)
			return
		}
		m := v.Advice[e.Source]
		if m == nil {
			m = make(map[string]adviceRec)
			v.Advice[e.Source] = m
		}
		m[e.Subject] = adviceRec{Action: action, Class: class}
	case "injection":
		// Ground truth for the audit arrives via "truth" events; the
		// activation timeline itself is not aggregated.
	}
}

// readers pools the 64 KiB stream buffers of IngestStream, which runs
// once per vehicle trace and once per HTTP ingest request.
var readers = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

// IngestStream decodes a trace stream — NDJSON or binary, sniffed from
// the first bytes — and ingests every event. Corrupt records are skipped
// and counted, per the trace readers' semantics. maxLineBytes bounds one
// record's decode buffer (< 1 uses the default).
func (c *Collector) IngestStream(r io.Reader, maxLineBytes int) (events, corrupt int, err error) {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil) // drop the caller's stream before pooling
		readers.Put(br)
	}()
	rd, _ := trace.OpenReader(br)
	rd.SetMaxRecordBytes(maxLineBytes)
	err = rd.Each(func(e *trace.Event) {
		c.Ingest(e)
		events++
	})
	corrupt = rd.Corrupt()
	c.corrupt.Add(int64(corrupt))
	return events, corrupt, err
}

// Events returns the number of events ingested so far.
func (c *Collector) Events() int64 {
	c.lockAll()
	defer c.unlockAll()
	events, _ := c.counts()
	return events
}

// Frames returns the number of frame events ingested so far.
func (c *Collector) Frames() int64 {
	c.lockAll()
	defer c.unlockAll()
	_, frames := c.counts()
	return frames
}

// counts sums the stripes' event and frame counters. Callers hold all
// stripe locks.
func (c *Collector) counts() (events, frames int64) {
	for _, sh := range c.shards {
		events += sh.events
		frames += sh.frames
	}
	return events, frames
}

// Corrupt returns the number of undecodable trace lines skipped.
func (c *Collector) Corrupt() int64 { return c.corrupt.Load() }

// Malformed returns the number of events dropped for unparsable fields.
func (c *Collector) Malformed() int64 { return c.malformed.Load() }

// Vehicles returns the number of distinct vehicles seen.
func (c *Collector) Vehicles() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.vehicles)
		sh.mu.Unlock()
	}
	return n
}

// ShardDepth returns the deepest and shallowest per-shard vehicle counts —
// the skew a bad vehicle-id distribution would show up as.
func (c *Collector) ShardDepth() (max, min int) {
	for i, sh := range c.shards {
		sh.mu.Lock()
		n := len(sh.vehicles)
		sh.mu.Unlock()
		if i == 0 || n > max {
			max = n
		}
		if i == 0 || n < min {
			min = n
		}
	}
	return max, min
}
