package warranty

import (
	"sort"

	"decos/internal/fleet"
	"decos/internal/maintenance"
)

// DecliningSlope is the trust-slope threshold (1/s of simulated time)
// below which a FRU's trajectory counts as a wearout trend — the fleet
// analogue of the Fig. 9 "trajectory A" shape.
const DecliningSlope = -0.01

// DefaultThreshold is the distinct-vehicle share above which a recurring
// job-inherent finding is classified as a systematic software design
// fault (Section V-C).
const DefaultThreshold = 0.15

// Arm is the audited performance of one diagnostic arm ("decos"/"obd")
// over every ingested ground-truth fault — the trace-fed reproduction of
// the E8 headline metrics.
type Arm struct {
	Audited        int     `json:"audited"`
	CorrectClass   int     `json:"correct_class"`
	CorrectActions int     `json:"correct_actions"`
	ClassAccuracy  float64 `json:"class_accuracy"`
	ActionAccuracy float64 `json:"action_accuracy"`
	TotalRemovals  int     `json:"total_removals"`
	NFFRemovals    int     `json:"nff_removals"`
	NFFRatio       float64 `json:"nff_ratio"`
	Missed         int     `json:"missed"`
	MissRatio      float64 `json:"miss_ratio"`
	Cost           float64 `json:"cost_usd"`
	FalseAlarms    int     `json:"false_alarms"`
}

// FleetStats is the Section V-C correlation result.
type FleetStats struct {
	Jobs       int             `json:"jobs"`
	Incidents  int             `json:"incidents"`
	Pareto20   float64         `json:"pareto_top20"`
	Systematic []fleet.JobStat `json:"job_stats,omitempty"`
}

// PatternStat is one ONA pattern's fleet-wide signature statistics
// (Fig. 8).
type PatternStat struct {
	Pattern  string  `json:"pattern"`
	Verdicts int     `json:"verdicts"`
	MeanConf float64 `json:"mean_confidence"`
	FRUs     int     `json:"frus"`
	Vehicles int     `json:"vehicles"`
}

// FRUStat is one FRU's fleet-wide trust and verdict aggregate.
type FRUStat struct {
	FRU            string  `json:"fru"`
	Vehicles       int     `json:"vehicles"`
	Verdicts       int     `json:"verdicts"`
	TrustSamples   int     `json:"trust_samples"`
	MeanFinalTrust float64 `json:"mean_final_trust"`
	MinTrust       float64 `json:"min_trust"`
	MeanSlope      float64 `json:"mean_slope_per_s"`
	Declining      int     `json:"declining_vehicles"`
}

// Summary is the fleet-level aggregate served by /v1/fleet/summary.
type Summary struct {
	Vehicles     int             `json:"vehicles"`
	FaultFree    int             `json:"fault_free"`
	Events       int64           `json:"events"`
	CorruptLines int64           `json:"corrupt_lines"`
	Malformed    int64           `json:"malformed_events"`
	Truths       int             `json:"ground_truth_faults"`
	Arms         map[string]*Arm `json:"arms"`
	Fleet        FleetStats      `json:"fleet"`
	Patterns     []PatternStat   `json:"patterns"`
	FRUs         []FRUStat       `json:"frus"`
}

// VehicleTrust is one vehicle's trust trajectory summary for a FRU.
type VehicleTrust struct {
	Vehicle  int     `json:"vehicle"`
	Samples  int     `json:"samples"`
	First    float64 `json:"first"`
	Last     float64 `json:"last"`
	Min      float64 `json:"min"`
	Slope    float64 `json:"slope_per_s"`
	Verdicts int     `json:"verdicts"`
}

// FRUDetail is the per-FRU drill-down served by /v1/fru/{id}.
type FRUDetail struct {
	FRUStat
	Patterns   map[string]int `json:"patterns,omitempty"`
	PerVehicle []VehicleTrust `json:"per_vehicle,omitempty"`
}

// lockAll takes every stripe so a summary observes a consistent snapshot;
// pairs with unlockAll.
func (c *Collector) lockAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
}

func (c *Collector) unlockAll() {
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
}

// vehicleEntry pairs a vehicle id with its retained state — the unit the
// summary fold consumes, whether the states live in this collector or were
// reassembled from snapshots by MergeSnapshots.
type vehicleEntry struct {
	id int
	st *vehicleState
}

// storeTotals carries the collector-level ingestion counters into a
// summary fold.
type storeTotals struct {
	events, corrupt, malformed int64
}

// sortedVehicles returns (id, state) pairs in ascending vehicle order.
// Callers hold all stripe locks. The fixed order makes every floating-
// point accumulation of the fold independent of ingestion concurrency.
func (c *Collector) sortedVehicles() []vehicleEntry {
	var out []vehicleEntry
	for _, sh := range c.shards {
		for id, st := range sh.vehicles {
			out = append(out, vehicleEntry{id, st})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Summary computes the fleet aggregate. threshold is the systematic-fault
// share (≤ 0 uses DefaultThreshold).
func (c *Collector) Summary(threshold float64) *Summary {
	c.lockAll()
	defer c.unlockAll()
	return summarize(c.sortedVehicles(),
		storeTotals{c.events.Load(), c.corrupt.Load(), c.malformed.Load()},
		threshold, nil)
}

// summarize is the one fold that turns per-vehicle states into the fleet
// Summary. vehicles must be sorted ascending by id: the fixed order pins
// every floating-point accumulation, which is what makes MergeSnapshots'
// summary bit-identical to a single collector's — both run exactly this
// function over exactly this ordering.
//
// pre, when non-nil, is a pre-merged fleet tally (MergeSnapshots path:
// the snapshots' tallies folded with fleet.Tally.Merge); nil rebuilds the tally
// from the vehicles' incident lists (single-collector path). The two are
// interchangeable because the tally is pure integer state — the property
// TestTallyMergeOrderInsensitive pins.
func summarize(vehicles []vehicleEntry, totals storeTotals, threshold float64, pre *fleet.Tally) *Summary {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	s := &Summary{
		Vehicles:     len(vehicles),
		Events:       totals.events,
		CorruptLines: totals.corrupt,
		Malformed:    totals.malformed,
		Arms:         make(map[string]*Arm),
	}

	// Every arm must audit every ground-truth fault, so the source set is
	// fixed before any vehicle is folded in (a vehicle whose trace lacks
	// one arm's advice still counts against that arm — as missed faults).
	audits := make(map[string]*maintenance.ArmAudit)
	for _, v := range vehicles {
		for src := range v.st.advice {
			if audits[src] == nil {
				audits[src] = &maintenance.ArmAudit{}
			}
		}
	}
	tally := pre
	if tally == nil {
		tally = fleet.NewTally()
	}
	type patAgg struct {
		count    int
		sumConf  float64
		frus     map[string]bool
		vehicles int
	}
	pats := make(map[string]*patAgg)
	type fruAgg struct {
		vehicles     int
		verdicts     int
		trustSamples int
		sumFinal     float64
		finalN       int
		min          float64
		minSet       bool
		sumSlope     float64
		slopeN       int
		declining    int
	}
	frus := make(map[string]*fruAgg)

	for _, v := range vehicles {
		st := v.st
		if st.faultFree {
			s.FaultFree++
		}
		s.Truths += len(st.truths)

		// E8 audit: judge every ground-truth fault against each arm's
		// embedded advice — the identical accumulation the in-process
		// campaign audit runs (maintenance.ArmAudit over maintenance.Judge).
		for _, tr := range st.truths {
			for _, src := range sortedKeys(audits) {
				adv, found := st.advice[src][tr.subject]
				audits[src].Judged(tr.class, adv.class, adv.action, found)
			}
		}
		if st.faultFree {
			for _, src := range sortedKeys(audits) {
				for _, adv := range st.advice[src] {
					audits[src].HealthyAdvice(adv.action)
				}
			}
		}

		// Section V-C fleet correlation (already folded when a pre-merged
		// tally was handed in).
		if pre == nil {
			for _, job := range st.incidents {
				tally.Observe(v.id, job)
			}
		}

		// Fig. 8 pattern signatures.
		for name, p := range st.patterns {
			a := pats[name]
			if a == nil {
				a = &patAgg{frus: make(map[string]bool)}
				pats[name] = a
			}
			a.count += p.count
			a.sumConf += p.sumConf
			a.vehicles++
			for f := range p.subjects {
				a.frus[f] = true
			}
		}

		// Trust trajectories and wearout trends.
		for name, sub := range st.bySubject {
			a := frus[name]
			if a == nil {
				a = &fruAgg{}
				frus[name] = a
			}
			a.vehicles++
			a.verdicts += sub.verdicts
			a.trustSamples += sub.trust.n
			if sub.trust.n > 0 {
				a.sumFinal += sub.trust.last
				a.finalN++
				if !a.minSet || sub.trust.min < a.min {
					a.min, a.minSet = sub.trust.min, true
				}
			}
			if sub.trust.n >= 2 {
				sl := sub.trust.slope()
				a.sumSlope += sl
				a.slopeN++
				if sl < DecliningSlope {
					a.declining++
				}
			}
		}
	}

	for src, audit := range audits {
		rep := &audit.Report
		s.Arms[src] = &Arm{
			Audited:        rep.Total,
			CorrectClass:   rep.CorrectClass,
			CorrectActions: rep.CorrectActions,
			ClassAccuracy:  rep.ClassAccuracy(),
			ActionAccuracy: rep.ActionAccuracy(),
			TotalRemovals:  rep.TotalRemovals,
			NFFRemovals:    rep.NFFRemovals,
			NFFRatio:       rep.NFFRatio(),
			Missed:         rep.Missed,
			MissRatio:      rep.MissRatio(),
			Cost:           rep.Cost,
			FalseAlarms:    audit.FalseAlarms,
		}
	}

	s.Fleet = FleetStats{
		Jobs:      tally.Jobs(),
		Incidents: tally.Incidents(),
		Pareto20:  tally.Pareto(0.2),
	}
	if len(vehicles) > 0 {
		s.Fleet.Systematic = tally.Analyze(len(vehicles), threshold)
	}

	for _, name := range sortedKeys(pats) {
		a := pats[name]
		mean := 0.0
		if a.count > 0 {
			mean = a.sumConf / float64(a.count)
		}
		s.Patterns = append(s.Patterns, PatternStat{
			Pattern: name, Verdicts: a.count, MeanConf: mean,
			FRUs: len(a.frus), Vehicles: a.vehicles,
		})
	}
	for _, name := range sortedKeys(frus) {
		a := frus[name]
		st := FRUStat{
			FRU: name, Vehicles: a.vehicles, Verdicts: a.verdicts,
			TrustSamples: a.trustSamples, MinTrust: a.min,
			Declining: a.declining,
		}
		if a.finalN > 0 {
			st.MeanFinalTrust = a.sumFinal / float64(a.finalN)
		}
		if a.slopeN > 0 {
			st.MeanSlope = a.sumSlope / float64(a.slopeN)
		}
		s.FRUs = append(s.FRUs, st)
	}
	return s
}

// FRU returns the fleet-wide drill-down for one FRU (by its String form,
// e.g. "component[0]" or "job[A/A1@1]").
func (c *Collector) FRU(name string) (*FRUDetail, bool) {
	c.lockAll()
	defer c.unlockAll()

	d := &FRUDetail{Patterns: make(map[string]int)}
	d.FRUStat.FRU = name
	found := false
	for _, v := range c.sortedVehicles() {
		sub := v.st.bySubject[name]
		if sub == nil {
			continue
		}
		found = true
		d.Vehicles++
		d.Verdicts += sub.verdicts
		d.TrustSamples += sub.trust.n
		for p, n := range sub.patterns {
			d.Patterns[p] += n
		}
		vt := VehicleTrust{Vehicle: v.id, Samples: sub.trust.n, Verdicts: sub.verdicts}
		if sub.trust.n > 0 {
			vt.First, vt.Last, vt.Min = sub.trust.first, sub.trust.last, sub.trust.min
			vt.Slope = sub.trust.slope()
			d.MeanFinalTrust += sub.trust.last
			if d.TrustSamples == sub.trust.n || sub.trust.min < d.MinTrust {
				d.MinTrust = sub.trust.min
			}
			if sub.trust.n >= 2 {
				d.MeanSlope += vt.Slope
				if vt.Slope < DecliningSlope {
					d.Declining++
				}
			}
		}
		d.PerVehicle = append(d.PerVehicle, vt)
	}
	if !found {
		return nil, false
	}
	trustVehicles, slopeVehicles := 0, 0
	for _, vt := range d.PerVehicle {
		if vt.Samples > 0 {
			trustVehicles++
		}
		if vt.Samples >= 2 {
			slopeVehicles++
		}
	}
	if trustVehicles > 0 {
		d.MeanFinalTrust /= float64(trustVehicles)
	}
	if slopeVehicles > 0 {
		d.MeanSlope /= float64(slopeVehicles)
	}
	return d, true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
