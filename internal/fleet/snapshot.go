package fleet

import "sort"

// TallyJob is one job's serialized tally state: its incident count and the
// distinct vehicles it was observed on, vehicles ascending.
type TallyJob struct {
	Job       string `json:"job"`
	Incidents int    `json:"incidents"`
	Vehicles  []int  `json:"vehicles"`
}

// TallySnapshot is the canonical wire form of a Tally, the part of a
// warranty snapshot that warranty.MergeSnapshots folds with Tally.Merge.
// Jobs are sorted by name and vehicle sets ascending, so two
// tallies holding the same observations serialize to identical bytes
// regardless of ingestion order.
type TallySnapshot struct {
	Jobs []TallyJob `json:"jobs,omitempty"`
}

// Snapshot exports the tally's full state in canonical order.
func (t *Tally) Snapshot() TallySnapshot {
	var s TallySnapshot
	for job, jt := range t.byJob {
		vs := make([]int, 0, len(jt.vehicles))
		for v := range jt.vehicles {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		s.Jobs = append(s.Jobs, TallyJob{Job: job, Incidents: jt.incidents, Vehicles: vs})
	}
	sort.Slice(s.Jobs, func(i, j int) bool { return s.Jobs[i].Job < s.Jobs[j].Job })
	return s
}

// TallyFromSnapshot rebuilds a Tally from its wire form. The total
// incident count is recomputed from the per-job counts, so a snapshot
// cannot smuggle in an inconsistent total.
func TallyFromSnapshot(s TallySnapshot) *Tally {
	t := NewTally()
	for _, j := range s.Jobs {
		jt := &jobTally{incidents: j.Incidents, vehicles: make(map[int]bool, len(j.Vehicles))}
		for _, v := range j.Vehicles {
			jt.vehicles[v] = true
		}
		t.byJob[j.Job] = jt
		t.incidents += j.Incidents
	}
	return t
}
