// Brake-by-wire: the paper's motivating safety-critical scenario. A
// triple-modular-redundant pressure-sensing DAS (S1, S2, S3 on three
// separate components — the hardware FCRs) keeps the brake function alive
// through a component loss, while the diagnostic DAS localizes the failed
// FRU and distinguishes it from the healthy replicas. The system is
// assembled through the run engine with a counting trace sink on the
// pipeline's attach points, so the incident's evidence volume is
// reported alongside the diagnosis.
//
// Run with: go run ./examples/brakebywire
package main

import (
	"context"
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// healthyRounds is phase 1's length; component 2 dies 20 ms after it.
const healthyRounds = 1000

func main() {
	counts := trace.NewCountingSink()
	dies := scenario.RoundsAt(healthyRounds).Add(20 * sim.Millisecond)
	plan := []scenario.InjectPlan{{At: dies, Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 2}}}
	sys := scenario.Fig10(7, diagnosis.Options{}, plan,
		engine.WithSink(counts, trace.Options{}))
	ctx := context.Background()

	fmt.Println("— phase 1: healthy operation —")
	mustRun(sys.Cluster.RunRounds(ctx, healthyRounds))
	report(sys)

	fmt.Println("\n— phase 2: component 2 (hosting replica S2, actuator A3, sink C2) dies —")
	mustRun(sys.Cluster.RunRounds(ctx, 2500))
	report(sys)

	fmt.Println("\n— diagnosis —")
	v, ok := sys.Diag.VerdictOf(core.HardwareFRU(2))
	if !ok {
		fmt.Println("no verdict!")
		return
	}
	fmt.Printf("component 2: %s (%s) → %s\n", v.Class, v.Pattern, v.Action)
	for _, job := range []string{"A/A3", "C/C2", "S/S2"} {
		if jv, ok := sys.Diag.VerdictOf(core.SoftwareFRU(2, job)); ok {
			fmt.Printf("job %s wrongly accused: %s\n", job, jv.Class)
		} else {
			fmt.Printf("job %s: correctly not accused (its failure is job-external)\n", job)
		}
	}
	fmt.Printf("\nrecorded evidence: %d failed frames, %d symptoms collected, %d verdicts emitted\n",
		counts.Count("frame"), counts.Count("symptom"), counts.Count("verdict"))
	fmt.Println("\nThe TMR redundancy-management service masked the failure —")
	fmt.Println("the brake function never lost its voted pressure value — while the")
	fmt.Println("maintenance-oriented classification tells the technician to replace")
	fmt.Println("exactly one FRU: the dead component.")
}

func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}

func report(sys *engine.Engine) {
	v := sys.Cluster.DAS("S").JobNamed("V").Impl.(*component.VoterJob)
	fmt.Printf("votes=%d  no-majority=%d  silent=%d  replica-missing=%v\n",
		v.Voted, v.NoMajority, v.Silent, v.Missing)
	if last, ok := sys.Cluster.Env.LastActuation("brake"); ok {
		fmt.Printf("last brake actuation: %.2f at %v\n", last.Value, last.At)
	}
}
