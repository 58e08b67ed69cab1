package fleet

import "sort"

// TallyJob is one job's serialized tally state: its incident count and the
// distinct vehicles it was observed on, vehicles ascending.
type TallyJob struct {
	Job       string `json:"job"`
	Incidents int    `json:"incidents"`
	Vehicles  []int  `json:"vehicles"`
}

// TallySnapshot is the canonical export of a Tally, a comparable digest
// of a campaign's fleet correlation. Jobs are sorted by name and vehicle
// sets ascending, so two tallies holding the same observations export
// identical values regardless of ingestion order.
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
