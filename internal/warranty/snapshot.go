package warranty

import "fmt"

// SnapshotVersion is the wire version of the snapshot. Validate,
// LoadSnapshot and MergeSnapshots refuse any other version: mixing
// encodings would silently skew the merged fleet view.
const SnapshotVersion = 1

// Snapshot is the canonical, versioned export of one collector's complete
// mergeable state — what decos-fleetd -state-dir saves and reloads, and
// the unit MergeSnapshots folds into one fleet summary.
//
// Vehicles are the collector's own per-vehicle states, ascending by id;
// the JSON names are their field tags. The encoding is canonical: every
// map is keyed deterministically (encoding/json emits map keys sorted)
// and pattern subject lists are sorted, so two collectors holding the
// same per-vehicle state serialize to identical bytes regardless of
// ingestion concurrency. Floating-point fields round-trip exactly —
// encoding/json emits the shortest representation that parses back to
// the same float64 — so a summary computed from decoded snapshots is
// bit-identical to one computed from the originating states. A member
// the type does not know (the "tally" earlier files carry) is ignored on
// decode.
type Snapshot struct {
	Version int `json:"version"`

	Events    int64 `json:"events"`
	Corrupt   int64 `json:"corrupt_lines"`
	Malformed int64 `json:"malformed_events"`
	Frames    int64 `json:"frames"`

	Vehicles []*vehicleState `json:"vehicles,omitempty"`
}

// Snapshot exports the collector's complete mergeable state. The export
// observes a consistent point in time: all stripes are locked for its
// duration, like Summary.
func (c *Collector) Snapshot() *Snapshot {
	c.lockAll()
	defer c.unlockAll()

	s := &Snapshot{
		Version:   SnapshotVersion,
		Corrupt:   c.corrupt.Load(),
		Malformed: c.malformed.Load(),
	}
	s.Events, s.Frames = c.counts()
	for _, v := range c.sortedVehicles() {
		s.Vehicles = append(s.Vehicles, v.clone())
	}
	return s
}

// LoadSnapshot imports a snapshot into an empty collector — the warm-
// standby boot path (decos-fleetd -state-dir): a restarted daemon
// reloads the state its predecessor exported and continues ingesting as
// if it never died. Counters and per-vehicle state are restored such
// that subsequent Snapshot and Summary outputs are byte-identical to
// the originating collector's — independent of either side's shard
// count, since vehicles rehash onto the new stripes.
func (c *Collector) LoadSnapshot(s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		if len(sh.vehicles) != 0 {
			return fmt.Errorf("warranty: LoadSnapshot into a non-empty collector")
		}
	}
	for _, v := range s.Vehicles {
		sh := c.shardFor(v.Vehicle)
		sh.vehicles[v.Vehicle] = v.clone()
		// Per-shard counters re-derive from the vehicles now homed here;
		// Validate checked that they sum to the export's totals.
		sh.events += int64(v.Events)
		sh.frames += int64(v.Frames)
	}
	c.corrupt.Store(s.Corrupt)
	c.malformed.Store(s.Malformed)
	return nil
}

// Validate checks a decoded snapshot without folding it anywhere: version
// match, strictly ascending vehicle ids, no null vehicle, subject or
// pattern entry, and event and frame totals equal to the vehicles' sums —
// so a corrupt snapshot read off the wire or a disk is refused before it
// reaches a collector or a merge. Unknown enum names already fail the
// JSON decode.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("warranty: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	var events, frames int64
	prev := -1 << 62
	for i, v := range s.Vehicles {
		if v == nil {
			return fmt.Errorf("warranty: corrupt snapshot: null vehicle at index %d", i)
		}
		if v.Vehicle <= prev {
			return fmt.Errorf("warranty: snapshot vehicles out of order at %d", v.Vehicle)
		}
		prev = v.Vehicle
		events += int64(v.Events)
		frames += int64(v.Frames)
		for name, sub := range v.Subjects {
			if sub == nil {
				return fmt.Errorf("warranty: corrupt snapshot: vehicle %d subject %q is null", v.Vehicle, name)
			}
		}
		for name, p := range v.Patterns {
			if p == nil {
				return fmt.Errorf("warranty: corrupt snapshot: vehicle %d pattern %q is null", v.Vehicle, name)
			}
		}
	}
	if s.Events != events || s.Frames != frames {
		return fmt.Errorf("warranty: corrupt snapshot: totals of %d events, %d frames, but its vehicles hold %d, %d",
			s.Events, s.Frames, events, frames)
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
// collector runs. The merged vehicles are sorted ascending, the order
// Collector.Summary uses, and folded by the same summarize, so every
// floating-point accumulation happens in the same sequence. The result is
// bit-identical to the single-collector Summary for any split.
func MergeSnapshots(snaps []*Snapshot, threshold float64) (*Summary, error) {
	var totals storeTotals
	var vehicles []*vehicleState
	seen := make(map[int]int)
	for i, s := range snaps {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("warranty: snapshot %d: %w", i, err)
		}
		totals.events += s.Events
		totals.corrupt += s.Corrupt
		totals.malformed += s.Malformed
		for _, v := range s.Vehicles {
			if prev, dup := seen[v.Vehicle]; dup {
				return nil, fmt.Errorf("warranty: vehicle %d in snapshots %d and %d", v.Vehicle, prev, i)
			}
			seen[v.Vehicle] = i
		}
		vehicles = append(vehicles, s.Vehicles...)
	}
	sortByVehicle(vehicles)
	return summarize(vehicles, totals, threshold), nil
}
