package fleet

import (
	"sort"

	"decos/internal/core"
)

// Relevant reports whether a diagnosed class participates in fleet
// correlation: only job-inherent findings (software, sensor, or the merged
// verdict) carry the Section V-C engineering-feedback signal.
func Relevant(c core.FaultClass) bool {
	return c == core.JobInherent || c == core.JobInherentSoftware || c == core.JobInherentSensor
}

// Tally is the incremental form of the fleet-correlation math: per-job
// incident counts and distinct-vehicle sets that can be fed one observation
// at a time (streaming trace ingestion) and merged across shards. The
// classic Aggregator is a thin recording layer over it.
type Tally struct {
	incidents int
	byJob     map[string]*jobTally
}

type jobTally struct {
	incidents int
	vehicles  map[int]bool
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{byJob: make(map[string]*jobTally)}
}

// Observe records one job-inherent incident of a vehicle. Callers filter
// with Relevant first (or use Aggregator.Add, which does).
func (t *Tally) Observe(vehicle int, job string) {
	jt := t.byJob[job]
	if jt == nil {
		jt = &jobTally{vehicles: make(map[int]bool)}
		t.byJob[job] = jt
	}
	jt.incidents++
	jt.vehicles[vehicle] = true
	t.incidents++
}

// Merge folds another tally into this one. The tally is pure integer
// state, so folding the tallies of a fleet split by vehicle in any order
// yields the tally of the whole fleet.
func (t *Tally) Merge(o *Tally) {
	for job, ojt := range o.byJob {
		jt := t.byJob[job]
		if jt == nil {
			jt = &jobTally{vehicles: make(map[int]bool)}
			t.byJob[job] = jt
		}
		jt.incidents += ojt.incidents
		for v := range ojt.vehicles {
			jt.vehicles[v] = true
		}
	}
	t.incidents += o.incidents
}

// Incidents returns the total number of observations.
func (t *Tally) Incidents() int { return t.incidents }

// Jobs returns the number of distinct reported jobs.
func (t *Tally) Jobs() int { return len(t.byJob) }

// Analyze classifies each reported job against the fleet size: systematic
// when its distinct-vehicle share reaches threshold (identical software on
// every vehicle ⇒ a design fault reproduces across the population; a
// transducer fault does not). Ordered by descending vehicle count.
func (t *Tally) Analyze(fleetSize int, threshold float64) []JobStat {
	var out []JobStat
	for job, jt := range t.byJob {
		share := float64(len(jt.vehicles)) / float64(fleetSize)
		out = append(out, JobStat{
			Job:        job,
			Vehicles:   len(jt.vehicles),
			Share:      share,
			Systematic: share >= threshold,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Vehicles != out[j].Vehicles {
			return out[i].Vehicles > out[j].Vehicles
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// Pareto returns the fraction of all incidents caused by the top topShare
// fraction of reported jobs — the paper's 20-80 observation evaluates to
// Pareto(0.2) ≈ 0.8 when the rule holds.
func (t *Tally) Pareto(topShare float64) float64 {
	if len(t.byJob) == 0 {
		return 0
	}
	jobs := make([]string, 0, len(t.byJob))
	for j := range t.byJob {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if t.byJob[jobs[i]].incidents != t.byJob[jobs[k]].incidents {
			return t.byJob[jobs[i]].incidents > t.byJob[jobs[k]].incidents
		}
		return jobs[i] < jobs[k]
	})
	top := int(topShare*float64(len(jobs)) + 0.5)
	if top < 1 {
		top = 1
	}
	if top > len(jobs) {
		top = len(jobs)
	}
	covered := 0
	for _, j := range jobs[:top] {
		covered += t.byJob[j].incidents
	}
	return float64(covered) / float64(t.incidents)
}
