// Fleet analysis: the engineering-feedback loop of the paper's Section
// V-C. A fleet of vehicles runs the same job software; one job version
// ships with a Heisenbug (affecting every vehicle sporadically) while a
// few vehicles additionally have worn transducers. Correlating the
// job-inherent verdicts across the fleet separates the systematic software
// design fault (→ OEM, software update) from the vehicle-local transducer
// faults (→ workshop, sensor replacement), and exhibits the 20-80
// concentration the paper cites.
//
// Run with: go run ./examples/fleetanalysis
package main

import (
	"context"
	"fmt"

	"decos/internal/diagnosis"
	"decos/internal/fleet"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func main() {
	const fleetSize = 30
	tally := fleet.NewTally()

	for v := 0; v < fleetSize; v++ {
		// Every vehicle ships the same buggy A1 software: a Heisenbug
		// that sporadically publishes a wild value. Three unlucky
		// vehicles also have a worn S2 pressure sensor (replica on
		// component 2 — a different component than the buggy A1, so the
		// two findings stay separable at the interface).
		plan := []scenario.InjectPlan{{Fault: &pack.FaultSpec{
			Kind: "heisenbug", Job: "A/A1", Channel: scenario.ChSpeed, Rate: 0.03, Value: 500,
		}}}
		if v%10 == 3 {
			plan = append(plan, scenario.InjectPlan{
				At:    sim.Time(400 * sim.Millisecond),
				Fault: &pack.FaultSpec{Kind: "sensor-stuck", Job: "S/S2", Value: 55},
			})
		}
		sys := scenario.Fig10(uint64(1000+v*13), diagnosis.Options{}, plan)
		sys.Cluster.RunRounds(context.Background(), 3000)

		// The vehicle uploads its job-inherent verdicts as field data.
		for _, verdict := range sys.Diag.Assessor.CurrentAll() {
			if !verdict.FRU.IsHardware() && fleet.Relevant(verdict.Class) {
				tally.Observe(v, verdict.FRU.Job)
			}
		}
	}

	stats := tally.Analyze(fleetSize, 0.3)
	fmt.Printf("fleet of %d vehicles, %d job-inherent incidents\n", fleetSize, tally.Incidents())
	for _, s := range stats {
		kind := "vehicle-local (transducer/hardware)"
		if s.Systematic {
			kind = "SYSTEMATIC software design fault → OEM"
		}
		fmt.Printf("  %-16s %3d vehicles (%.0f%%)  %s\n", s.Job, s.Vehicles, 100*s.Share, kind)
	}
	fmt.Printf("Pareto: top 20%% of modules cause %.0f%% of incidents\n", 100*tally.Pareto(0.2))
	fmt.Println()
	for _, s := range stats {
		if s.Systematic {
			fmt.Printf("→ %s is flagged on %.0f%% of the fleet: the OEM correlates the\n", s.Job, 100*s.Share)
			fmt.Println("  field data, confirms the software design fault, and distributes a")
			fmt.Println("  corrected job version (maintenance action: update-software).")
		} else {
			fmt.Printf("→ %s appears on isolated vehicles only: their transducers are\n", s.Job)
			fmt.Println("  inspected at the service station (no software recall is needed).")
		}
	}
}
