package experiments

import (
	"context"
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

// E6Judgment regenerates the three-dimensional judgment of the paper's
// Fig. 10: (a) a job-inherent fault stays contained within its DAS; (b) a
// component-internal fault causes correlated failures of the jobs of
// multiple DASs hosted on that component, and TMR masks the loss of the
// replica it hosted; (c) the diagnostic DAS localizes the correct FRU in
// both cases.
func E6Judgment(seed uint64) *Result {
	t := newTable("scenario", "DAS A impact", "DAS C impact", "DAS S impact (TMR)", "localized FRU", "verdict")
	metrics := map[string]float64{}
	jobFault, compFault := e6Runs(seed)

	// (a) Job-inherent fault in DAS A's sensor job A1 on component 0.
	{
		sys := jobFault.build()
		sys.Cluster.RunRounds(context.Background(), jobFault.rounds)
		rejected := sys.Cluster.DAS("A").JobNamed("A2").Impl.(*component.ControlJob).RejectedInputs
		voterOK := tmrVoter(sys).NoMajority == 0
		v, ok := sys.Diag.VerdictOf(core.SoftwareFRU(0, "A/A1"))
		verdict := "-"
		if ok {
			verdict = v.Class.String()
		}
		contained := voterOK && sys.Cluster.DAS("C").JobNamed("C2").Impl.(*component.SinkJob).Received > 0
		t.row("job-inherent (A1)",
			fmt.Sprintf("%d implausible inputs rejected", rejected),
			"none", "none (no vote lost)",
			"job A/A1", verdict)
		metrics["job_fault_contained"] = b2f(contained)
		metrics["job_fault_localized"] = b2f(ok && core.JobInherentSoftware.Matches(v.Class))
	}

	// (b) Component-internal fault on component 2 (hosts A3, C2, S2).
	{
		sys := compFault.build()
		tmr := tmrVoter(sys)
		sys.Cluster.RunRounds(context.Background(), e6Healthy)
		votedBefore := tmr.Voted
		sys.Cluster.RunRounds(context.Background(), compFault.rounds-e6Healthy)
		votes := tmr.Voted - votedBefore
		v, ok := sys.Diag.VerdictOf(core.HardwareFRU(2))
		verdict := "-"
		if ok {
			verdict = fmt.Sprintf("%s (%s)", v.Class, v.Pattern)
		}
		jobsBlamed := 0
		for _, job := range []string{"A/A3", "C/C2", "S/S2"} {
			if _, ok := sys.Diag.VerdictOf(core.SoftwareFRU(2, job)); ok {
				jobsBlamed++
			}
		}
		t.row("component-internal (c2)",
			"actuator A3 lost", "sink C2 lost",
			fmt.Sprintf("S2 lost, TMR masked (%d/%d votes)", votes, compFault.rounds-e6Healthy),
			"component[2]", verdict)
		metrics["tmr_masked"] = b2f(votes >= 2400)
		metrics["hw_fault_localized"] = b2f(ok && v.Class == core.ComponentInternal)
		metrics["jobs_wrongly_blamed"] = float64(jobsBlamed)
	}

	return &Result{
		ID:      "E6",
		Figure:  "Fig. 10 — judgment in time/value/space: containment & localization",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// e6Healthy is the rounds E6(b) runs before component 2 dies, 20 ms
// later.
const e6Healthy = 500

// e6Runs returns E6's runs: (a) a Bohrbug in A1 publishing 400 whenever
// the wheel speed exceeds 55, and (b) component 2 failing silent.
func e6Runs(seed uint64) (jobFault, compFault run) {
	return run{seed: seed, rounds: 3000, plan: plan(0,
			pack.FaultSpec{Kind: "bohrbug", Job: "A/A1", Channel: scenario.ChSpeed, Threshold: 55, Value: 400})},
		run{seed: seed + 1, rounds: 3000, plan: plan(scenario.RoundsAt(e6Healthy).Add(20*sim.Millisecond),
			pack.FaultSpec{Kind: "permanent-silent", Component: 2})}
}

// tmrVoter returns the voter job of a Fig. 10 system's TMR DAS S.
func tmrVoter(sys *engine.Engine) *component.VoterJob {
	return sys.Cluster.DAS("S").JobNamed("V").Impl.(*component.VoterJob)
}
