package warranty

import (
	"fmt"
	"sort"

	"decos/internal/core"
	"decos/internal/fleet"
)

// SnapshotVersion is the wire version of the snapshot. Validate,
// LoadSnapshot and MergeSnapshots refuse any other version: mixing
// encodings would silently skew the merged fleet view.
const SnapshotVersion = 1

// Snapshot is the canonical, versioned export of one collector's complete
// mergeable state — what decos-fleetd -state-dir saves and reloads, and
// the unit MergeSnapshots folds into one fleet summary.
//
// The encoding is canonical: vehicles ascending, every map keyed
// deterministically (encoding/json emits map keys sorted), tally jobs and
// vehicle sets sorted. Two collectors holding the same per-vehicle state
// serialize to identical bytes regardless of ingestion concurrency.
// Floating-point fields round-trip exactly — encoding/json emits the
// shortest representation that parses back to the same float64 — so a
// summary computed from decoded snapshots is bit-identical to one computed
// from the originating states.
type Snapshot struct {
	Version int `json:"version"`

	Events    int64 `json:"events"`
	Corrupt   int64 `json:"corrupt_lines"`
	Malformed int64 `json:"malformed_events"`
	Frames    int64 `json:"frames"`

	// Tally is the collector's Section V-C fleet-correlation state;
	// MergeSnapshots folds the snapshots' tallies with fleet.Tally.Merge.
	Tally fleet.TallySnapshot `json:"tally"`

	Vehicles []VehicleSnapshot `json:"vehicles,omitempty"`
}

// VehicleSnapshot is one vehicle's retained state on the wire.
type VehicleSnapshot struct {
	Vehicle   int  `json:"vehicle"`
	Events    int  `json:"events"`
	SawHeader bool `json:"saw_header,omitempty"`
	FaultFree bool `json:"fault_free,omitempty"`
	Frames    int  `json:"frames,omitempty"`
	Verdicts  int  `json:"verdicts,omitempty"`

	Truths    []TruthSnapshot                      `json:"truths,omitempty"`
	Advice    map[string]map[string]AdviceSnapshot `json:"advice,omitempty"`
	Symptoms  map[string]int                       `json:"symptoms,omitempty"`
	Subjects  map[string]SubjectSnapshot           `json:"subjects,omitempty"`
	Patterns  map[string]PatternSnapshot           `json:"patterns,omitempty"`
	Incidents []string                             `json:"incidents,omitempty"`
}

// TruthSnapshot is one ground-truth fault record.
type TruthSnapshot struct {
	Class   string `json:"class"`
	Subject string `json:"subject"`
	Detail  string `json:"detail,omitempty"`
}

// AdviceSnapshot is one advisor's standing advice for a FRU.
type AdviceSnapshot struct {
	Action string `json:"action"`
	Class  string `json:"class"`
}

// SubjectSnapshot is one FRU's per-vehicle slice of state.
type SubjectSnapshot struct {
	Trust    TrustSnapshot  `json:"trust"`
	Verdicts int            `json:"verdicts"`
	Patterns map[string]int `json:"patterns,omitempty"`
}

// TrustSnapshot carries a trust trajectory's order-independent regression
// sums plus the stream-order endpoints, bit-exact.
type TrustSnapshot struct {
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

// PatternSnapshot is one ONA pattern's per-vehicle signature statistics.
type PatternSnapshot struct {
	Count    int      `json:"count"`
	SumConf  float64  `json:"sum_conf"`
	Subjects []string `json:"subjects,omitempty"`
}

// Snapshot exports the collector's complete mergeable state. The export
// observes a consistent point in time: all stripes are locked for its
// duration, like Summary.
func (c *Collector) Snapshot() *Snapshot {
	c.lockAll()
	defer c.unlockAll()

	s := &Snapshot{
		Version:   SnapshotVersion,
		Events:    c.events.Load(),
		Corrupt:   c.corrupt.Load(),
		Malformed: c.malformed.Load(),
	}
	for _, sh := range c.shards {
		s.Frames += sh.frames
	}

	tally := fleet.NewTally()
	for _, v := range c.sortedVehicles() {
		s.Vehicles = append(s.Vehicles, exportVehicle(v))
		for _, job := range v.st.incidents {
			tally.Observe(v.id, job)
		}
	}
	s.Tally = tally.Snapshot()
	return s
}

func exportVehicle(v vehicleEntry) VehicleSnapshot {
	st := v.st
	out := VehicleSnapshot{
		Vehicle:   v.id,
		Events:    st.events,
		SawHeader: st.sawHeader,
		FaultFree: st.faultFree,
		Frames:    st.frames,
		Verdicts:  st.verdicts,
		Incidents: append([]string(nil), st.incidents...),
	}
	for _, tr := range st.truths {
		out.Truths = append(out.Truths, TruthSnapshot{
			Class: tr.class.String(), Subject: tr.subject, Detail: tr.detail,
		})
	}
	if len(st.advice) > 0 {
		out.Advice = make(map[string]map[string]AdviceSnapshot, len(st.advice))
		for src, m := range st.advice {
			am := make(map[string]AdviceSnapshot, len(m))
			for fru, a := range m {
				am[fru] = AdviceSnapshot{Action: a.action.String(), Class: a.class.String()}
			}
			out.Advice[src] = am
		}
	}
	if len(st.symptoms) > 0 {
		out.Symptoms = make(map[string]int, len(st.symptoms))
		for k, n := range st.symptoms {
			out.Symptoms[k] = n
		}
	}
	if len(st.bySubject) > 0 {
		out.Subjects = make(map[string]SubjectSnapshot, len(st.bySubject))
		for name, sub := range st.bySubject {
			ss := SubjectSnapshot{
				Trust: TrustSnapshot{
					N:    sub.trust.n,
					SumT: sub.trust.sumT, SumY: sub.trust.sumY,
					SumTY: sub.trust.sumTY, SumTT: sub.trust.sumTT,
					Min: sub.trust.min, First: sub.trust.first, Last: sub.trust.last,
					FirstT: sub.trust.firstT, LastT: sub.trust.lastT,
				},
				Verdicts: sub.verdicts,
			}
			if len(sub.patterns) > 0 {
				ss.Patterns = make(map[string]int, len(sub.patterns))
				for p, n := range sub.patterns {
					ss.Patterns[p] = n
				}
			}
			out.Subjects[name] = ss
		}
	}
	if len(st.patterns) > 0 {
		out.Patterns = make(map[string]PatternSnapshot, len(st.patterns))
		for name, p := range st.patterns {
			subjects := make([]string, 0, len(p.subjects))
			for s := range p.subjects {
				subjects = append(subjects, s)
			}
			sort.Strings(subjects)
			out.Patterns[name] = PatternSnapshot{Count: p.count, SumConf: p.sumConf, Subjects: subjects}
		}
	}
	return out
}

// importVehicle rebuilds the in-memory state from the wire form. It is the
// exact inverse of exportVehicle; any unparsable enum makes the whole
// snapshot corrupt (it is refused rather than folded half-read).
func importVehicle(vs VehicleSnapshot) (*vehicleState, error) {
	st := newVehicleState()
	st.events = vs.Events
	st.sawHeader = vs.SawHeader
	st.faultFree = vs.FaultFree
	st.frames = vs.Frames
	st.verdicts = vs.Verdicts
	st.incidents = append([]string(nil), vs.Incidents...)
	for _, tr := range vs.Truths {
		class, err := core.ParseFaultClass(tr.Class)
		if err != nil {
			return nil, fmt.Errorf("vehicle %d truth: %v", vs.Vehicle, err)
		}
		st.truths = append(st.truths, truthRec{class: class, subject: tr.Subject, detail: tr.Detail})
	}
	for src, m := range vs.Advice {
		am := make(map[string]adviceRec, len(m))
		for fru, a := range m {
			action, aerr := core.ParseMaintenanceAction(a.Action)
			class, cerr := core.ParseFaultClass(a.Class)
			if aerr != nil || cerr != nil {
				return nil, fmt.Errorf("vehicle %d advice %s/%s: bad enum", vs.Vehicle, src, fru)
			}
			am[fru] = adviceRec{action: action, class: class}
		}
		st.advice[src] = am
	}
	for k, n := range vs.Symptoms {
		st.symptoms[k] = n
	}
	for name, ss := range vs.Subjects {
		sub := st.subject(name)
		sub.verdicts = ss.Verdicts
		sub.trust = trustAcc{
			n:    ss.Trust.N,
			sumT: ss.Trust.SumT, sumY: ss.Trust.SumY,
			sumTY: ss.Trust.SumTY, sumTT: ss.Trust.SumTT,
			min: ss.Trust.Min, first: ss.Trust.First, last: ss.Trust.Last,
			firstT: ss.Trust.FirstT, lastT: ss.Trust.LastT,
		}
		for p, n := range ss.Patterns {
			sub.patterns[p] = n
		}
	}
	for name, ps := range vs.Patterns {
		p := &patternAcc{count: ps.Count, sumConf: ps.SumConf, subjects: make(map[string]bool, len(ps.Subjects))}
		for _, s := range ps.Subjects {
			p.subjects[s] = true
		}
		st.patterns[name] = p
	}
	return st, nil
}

// LoadSnapshot imports a snapshot into an empty collector — the warm-
// standby boot path (decos-fleetd -state-dir): a restarted daemon
// reloads the state its predecessor exported and continues ingesting as
// if it never died. Counters and per-vehicle state are restored such
// that subsequent Snapshot and Summary outputs are byte-identical to
// the originating collector's — independent of either side's shard
// count, since vehicles rehash onto the new stripes.
func (c *Collector) LoadSnapshot(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("warranty: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		if len(sh.vehicles) != 0 {
			return fmt.Errorf("warranty: LoadSnapshot into a non-empty collector")
		}
	}
	prev := -1 << 62
	for _, vs := range s.Vehicles {
		if vs.Vehicle <= prev {
			return fmt.Errorf("warranty: snapshot vehicles out of order at %d", vs.Vehicle)
		}
		prev = vs.Vehicle
		st, err := importVehicle(vs)
		if err != nil {
			return fmt.Errorf("warranty: corrupt snapshot: %v", err)
		}
		sh := c.shardFor(vs.Vehicle)
		sh.vehicles[vs.Vehicle] = st
		// Per-shard frame counters re-derive from the vehicles now homed
		// here; the export's total was the sum over its own sharding.
		sh.frames += int64(st.frames)
	}
	c.events.Store(s.Events)
	c.corrupt.Store(s.Corrupt)
	c.malformed.Store(s.Malformed)
	return nil
}

// Validate checks a decoded snapshot without folding it anywhere: version
// match, strictly ascending vehicle ids, parsable enums — so a corrupt
// snapshot read off the wire or a disk is refused before it reaches a
// collector or a merge.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("warranty: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	prev := -1 << 62
	for _, vs := range s.Vehicles {
		if vs.Vehicle <= prev {
			return fmt.Errorf("warranty: snapshot vehicles out of order at %d", vs.Vehicle)
		}
		prev = vs.Vehicle
		if _, err := importVehicle(vs); err != nil {
			return fmt.Errorf("warranty: corrupt snapshot: %v", err)
		}
	}
	return nil
}

// MergeSnapshots folds snapshots of collectors that split the fleet by
// vehicle into the Summary a single collector holding every vehicle would
// produce. Vehicle sets must be disjoint; a vehicle in two snapshots fails
// the merge rather than being double-counted silently. Errors name a
// snapshot by its index in snaps.
//
// Determinism argument: each vehicle's state was accumulated in stream
// order in exactly one collector — the same per-vehicle fold a single
// collector runs. The cross-vehicle fold below sorts all vehicles
// ascending, the identical order the single collector uses, so every
// floating-point accumulation happens in the same sequence. The fleet
// tally is folded with fleet.Tally.Merge in slice order — pure integer
// state, so any fold order yields the same analysis. The result is
// bit-identical to the single-collector Summary for any split.
func MergeSnapshots(snaps []*Snapshot, threshold float64) (*Summary, error) {
	var totals storeTotals
	tally := fleet.NewTally()
	var entries []vehicleEntry
	seen := make(map[int]int)
	for i, s := range snaps {
		if s.Version != SnapshotVersion {
			return nil, fmt.Errorf("warranty: snapshot %d: version %d, want %d", i, s.Version, SnapshotVersion)
		}
		totals.events += s.Events
		totals.corrupt += s.Corrupt
		totals.malformed += s.Malformed
		tally.Merge(fleet.TallyFromSnapshot(s.Tally))
		for _, vs := range s.Vehicles {
			if prev, dup := seen[vs.Vehicle]; dup {
				return nil, fmt.Errorf("warranty: vehicle %d in snapshots %d and %d", vs.Vehicle, prev, i)
			}
			seen[vs.Vehicle] = i
			st, err := importVehicle(vs)
			if err != nil {
				return nil, fmt.Errorf("warranty: corrupt snapshot %d: %v", i, err)
			}
			entries = append(entries, vehicleEntry{id: vs.Vehicle, st: st})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	return summarize(entries, totals, threshold, tally), nil
}
