package fleet

import (
	"math"
	"testing"

	"decos/internal/core"
)

func TestRelevant(t *testing.T) {
	for _, c := range []core.FaultClass{core.JobInherent, core.JobInherentSoftware, core.JobInherentSensor} {
		if !Relevant(c) {
			t.Errorf("Relevant(%v) = false, want true", c)
		}
	}
	for _, c := range []core.FaultClass{
		core.ClassUnknown, core.ComponentExternal, core.ComponentBorderline,
		core.ComponentInternal, core.JobExternal, core.JobBorderline,
	} {
		if Relevant(c) {
			t.Errorf("Relevant(%v) = true, want false", c)
		}
	}
}

func TestTallyObserve(t *testing.T) {
	ta := NewTally()
	if ta.Incidents() != 0 || ta.Jobs() != 0 {
		t.Fatalf("empty tally: incidents=%d jobs=%d", ta.Incidents(), ta.Jobs())
	}
	ta.Observe(1, "A/A1")
	ta.Observe(2, "A/A1")
	ta.Observe(2, "A/A1") // repeat incident, same vehicle
	ta.Observe(3, "S/S2")
	if got := ta.Incidents(); got != 4 {
		t.Errorf("Incidents = %d, want 4", got)
	}
	if got := ta.Jobs(); got != 2 {
		t.Errorf("Jobs = %d, want 2", got)
	}
}

func TestTallyAnalyzeThreshold(t *testing.T) {
	ta := NewTally()
	for v := 0; v < 8; v++ {
		ta.Observe(v, "A/A1") // 8 of 10 vehicles: systematic
	}
	ta.Observe(0, "S/S2") // 1 of 10: vehicle-local

	stats := ta.Analyze(10, 0.3)
	if !stats[0].Systematic {
		t.Errorf("A/A1 at 80%% share not flagged systematic: %+v", stats[0])
	}
	if math.Abs(stats[0].Share-0.8) > 1e-12 {
		t.Errorf("A/A1 share = %v, want 0.8", stats[0].Share)
	}
	if stats[1].Systematic {
		t.Errorf("S/S2 at 10%% share flagged systematic: %+v", stats[1])
	}
}

func TestParetoEmpty(t *testing.T) {
	if got := NewTally().Pareto(0.2); got != 0 {
		t.Errorf("empty Pareto = %v, want 0", got)
	}
}

func TestTallyPareto(t *testing.T) {
	// Ten jobs; the two hottest carry 80 of 100 incidents — the paper's
	// 20-80 observation: Pareto(0.2) = 0.8.
	ta := NewTally()
	counts := []int{50, 30, 5, 4, 3, 3, 2, 1, 1, 1}
	for j, n := range counts {
		for i := 0; i < n; i++ {
			ta.Observe(i, "job"+string(rune('A'+j)))
		}
	}
	if got := ta.Pareto(0.2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Pareto(0.2) = %v, want 0.8", got)
	}
	// The full set always covers everything.
	if got := ta.Pareto(1.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Pareto(1.0) = %v, want 1.0", got)
	}
}

func TestSystematicVsLocal(t *testing.T) {
	ta := NewTally()
	observe := func(inc Incident) {
		if Relevant(inc.Class) {
			ta.Observe(inc.Vehicle, inc.Job)
		}
	}
	// Job "A/ctl" flagged on 40 vehicles: a shipped software fault.
	for v := 0; v < 40; v++ {
		observe(Incident{Vehicle: v, Job: "A/ctl", Class: core.JobInherent})
	}
	// Job "A/sense" flagged on 2 vehicles: their sensors.
	observe(Incident{Vehicle: 7, Job: "A/sense", Class: core.JobInherentSensor})
	observe(Incident{Vehicle: 9, Job: "A/sense", Class: core.JobInherentSensor})
	// A hardware finding never enters the fleet correlation.
	observe(Incident{Vehicle: 1, Job: "A/hw", Class: core.ComponentInternal})

	stats := ta.Analyze(100, 0.1)
	if len(stats) != 2 || ta.Incidents() != 42 {
		t.Fatalf("stats = %d entries, %d incidents; want 2, 42", len(stats), ta.Incidents())
	}
	if stats[0].Job != "A/ctl" || !stats[0].Systematic || stats[0].Vehicles != 40 {
		t.Errorf("ctl stat wrong: %+v", stats[0])
	}
	if stats[1].Job != "A/sense" || stats[1].Systematic {
		t.Errorf("sense stat wrong: %+v", stats[1])
	}
}

func TestNonInherentIncidentsIgnored(t *testing.T) {
	ta := NewTally()
	inc := Incident{Vehicle: 1, Job: "X/j", Class: core.ComponentInternal}
	if Relevant(inc.Class) {
		ta.Observe(inc.Vehicle, inc.Job)
	}
	if ta.Incidents() != 0 || ta.Jobs() != 0 {
		t.Error("hardware incident accepted into fleet analysis")
	}
}

func TestDuplicateVehicleCountedOnce(t *testing.T) {
	ta := NewTally()
	for i := 0; i < 5; i++ {
		ta.Observe(3, "X/j")
	}
	stats := ta.Analyze(10, 0.5)
	if stats[0].Vehicles != 1 {
		t.Errorf("vehicle deduplication failed: %d", stats[0].Vehicles)
	}
	if ta.Incidents() != 5 {
		t.Errorf("incident count = %d", ta.Incidents())
	}
}

func TestPareto2080(t *testing.T) {
	ta := NewTally()
	// 10 jobs; 2 of them (20 %) cause 80 of 100 incidents.
	v := 0
	addN := func(job string, n int) {
		for i := 0; i < n; i++ {
			ta.Observe(v, job)
			v++
		}
	}
	addN("hot/1", 45)
	addN("hot/2", 35)
	for i := 0; i < 8; i++ {
		addN("cold/"+string(rune('a'+i)), 2+i%2)
	}
	if got := ta.Pareto(0.2); math.Abs(got-0.8) > 0.08 {
		t.Errorf("Pareto(0.2) = %v, want ≈0.8", got)
	}
	if ta.Pareto(1.0) != 1.0 {
		t.Errorf("Pareto(1.0) = %v", ta.Pareto(1.0))
	}
}
