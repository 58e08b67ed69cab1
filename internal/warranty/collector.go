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

	events    atomic.Int64 // events ingested
	malformed atomic.Int64 // events dropped for unparsable fields
	corrupt   atomic.Int64 // undecodable trace lines skipped by readers
}

type shard struct {
	mu       sync.Mutex
	vehicles map[int]*vehicleState
	frames   int64 // frame events ingested into this shard
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

// truthRec is one ground-truth fault of a vehicle (from a "truth" event).
type truthRec struct {
	class   core.FaultClass
	subject string
	detail  string
}

// adviceRec is one advisor's standing advice for a FRU.
type adviceRec struct {
	action core.MaintenanceAction
	class  core.FaultClass
}

// trustAcc accumulates one FRU's trust trajectory on one vehicle:
// order-independent regression sums over (t seconds, trust) plus the
// endpoints in stream order.
type trustAcc struct {
	n                        int
	sumT, sumY, sumTY, sumTT float64
	min                      float64
	first, last              float64
	firstT, lastT            int64
}

func (a *trustAcc) add(tUS int64, y float64) {
	t := float64(tUS) / 1e6
	if a.n == 0 || y < a.min {
		a.min = y
	}
	if a.n == 0 || tUS < a.firstT {
		a.first, a.firstT = y, tUS
	}
	if a.n == 0 || tUS >= a.lastT {
		a.last, a.lastT = y, tUS
	}
	a.n++
	a.sumT += t
	a.sumY += y
	a.sumTY += t * y
	a.sumTT += t * t
}

// slope returns the least-squares trust slope in 1/s (0 with < 2 samples
// or a degenerate time base).
func (a *trustAcc) slope() float64 {
	if a.n < 2 {
		return 0
	}
	n := float64(a.n)
	den := n*a.sumTT - a.sumT*a.sumT
	if den == 0 {
		return 0
	}
	return (n*a.sumTY - a.sumT*a.sumY) / den
}

// patternAcc accumulates one ONA pattern's signature statistics on one
// vehicle (Fig. 8: which patterns fire, how often, with what confidence).
type patternAcc struct {
	count    int
	sumConf  float64
	subjects map[string]bool
}

// vehicleState is everything retained per vehicle. It is only ever
// mutated under its shard's mutex, in stream order.
type vehicleState struct {
	events    int
	sawHeader bool
	faultFree bool

	truths []truthRec
	advice map[string]map[string]adviceRec // source -> FRU -> advice

	frames    int
	symptoms  map[string]int // symptom kind -> count
	verdicts  int
	bySubject map[string]*subjectState // FRU string -> per-FRU state
	patterns  map[string]*patternAcc   // pattern -> stats
	incidents []string                 // job names of job-inherent verdicts
}

// subjectState is the per-FRU slice of a vehicle's state.
type subjectState struct {
	trust    trustAcc
	verdicts int
	patterns map[string]int
}

func newVehicleState() *vehicleState {
	return &vehicleState{
		advice:    make(map[string]map[string]adviceRec),
		symptoms:  make(map[string]int),
		bySubject: make(map[string]*subjectState),
		patterns:  make(map[string]*patternAcc),
	}
}

func (v *vehicleState) subject(name string) *subjectState {
	s := v.bySubject[name]
	if s == nil {
		s = &subjectState{patterns: make(map[string]int)}
		v.bySubject[name] = s
	}
	return s
}

func (c *Collector) shardFor(vehicle int) *shard {
	n := len(c.shards)
	return c.shards[((vehicle%n)+n)%n]
}

// Ingest folds one trace event into the store. Events of one vehicle must
// arrive in stream order (one uplink per vehicle); different vehicles may
// ingest concurrently.
func (c *Collector) Ingest(e trace.Event) {
	sh := c.shardFor(e.Vehicle)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	v := sh.vehicles[e.Vehicle]
	if v == nil {
		v = newVehicleState()
		sh.vehicles[e.Vehicle] = v
	}
	v.events++
	c.events.Add(1)

	switch e.Kind {
	case "frame":
		v.frames++
		// Counted per shard under the lock already held — an atomic here
		// would be a measurable tax on the per-event ingest path.
		sh.frames++
	case "symptom":
		v.symptoms[e.Symptom] += e.Count
	case "verdict":
		class, err := core.ParseFaultClass(e.Class)
		if err != nil {
			c.malformed.Add(1)
			return
		}
		v.verdicts++
		s := v.subject(e.Subject)
		s.verdicts++
		if e.Pattern != "" {
			s.patterns[e.Pattern]++
			p := v.patterns[e.Pattern]
			if p == nil {
				p = &patternAcc{subjects: make(map[string]bool)}
				v.patterns[e.Pattern] = p
			}
			p.count++
			p.sumConf += e.Conf
			p.subjects[e.Subject] = true
		}
		if fleet.Relevant(class) {
			if f, err := core.ParseFRU(e.Subject); err == nil && !f.IsHardware() {
				v.incidents = append(v.incidents, f.Job)
			} else {
				c.malformed.Add(1)
			}
		}
	case "trust":
		if e.Trust != nil {
			v.subject(e.Subject).trust.add(e.T, *e.Trust)
		}
	case "vehicle":
		v.sawHeader = true
		v.faultFree = e.Detail == "fault-free"
	case "truth":
		class, err := core.ParseFaultClass(e.Class)
		if err != nil {
			c.malformed.Add(1)
			return
		}
		v.truths = append(v.truths, truthRec{class: class, subject: e.Subject, detail: e.Detail})
	case "advice":
		action, aerr := core.ParseMaintenanceAction(e.Action)
		class, cerr := core.ParseFaultClass(e.Class)
		if aerr != nil || cerr != nil || e.Source == "" {
			c.malformed.Add(1)
			return
		}
		m := v.advice[e.Source]
		if m == nil {
			m = make(map[string]adviceRec)
			v.advice[e.Source] = m
		}
		m[e.Subject] = adviceRec{action: action, class: class}
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
	err = rd.ReadAll(func(e trace.Event) {
		c.Ingest(e)
		events++
	})
	corrupt = rd.Corrupt()
	c.corrupt.Add(int64(corrupt))
	return events, corrupt, err
}

// Events returns the number of events ingested so far.
func (c *Collector) Events() int64 { return c.events.Load() }

// Frames returns the number of frame events ingested so far.
func (c *Collector) Frames() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.frames
		sh.mu.Unlock()
	}
	return n
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
