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
	"fmt"

	"decos/internal/diagnosis"
	"decos/internal/fleet"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func main() {
	const fleetSize = 30
	agg := fleet.NewAggregator(fleetSize)

	for v := 0; v < fleetSize; v++ {
		sys := scenario.Fig10(uint64(1000+v*13), diagnosis.Options{}, nil)

		// Every vehicle ships the same buggy A1 software: a Heisenbug
		// that sporadically publishes a wild value. The fault targets the
		// A1 job handle, so it is injected on the built system rather
		// than through an engine manifest.
		sys.Injector.Heisenbug(sys.Sensor, scenario.ChSpeed, 0.03, 500, false)

		// Three unlucky vehicles also have a worn S2 pressure sensor
		// (replica on component 2 — a different component than the buggy
		// A1, so the two findings stay separable at the interface).
		if v%10 == 3 {
			sys.Injector.SensorStuck(sys.Replicas[1], sim.Time(400*sim.Millisecond), 55)
		}

		sys.Engine.RunRounds(3000)

		// The vehicle uploads its job-inherent verdicts as field data.
		for _, verdict := range sys.Diag.Assessor.CurrentAll() {
			if verdict.FRU.IsHardware() {
				continue
			}
			agg.Add(fleet.Incident{
				Vehicle: v,
				Job:     verdict.FRU.Job,
				Class:   verdict.Class,
				Pattern: verdict.Pattern,
			})
		}
	}

	fmt.Print(agg.Report(0.3))
	fmt.Println()
	for _, s := range agg.Analyze(0.3) {
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
