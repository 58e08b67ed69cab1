package experiments

import (
	"fmt"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/diagnosis"
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

	// (a) Job-inherent fault in DAS A's sensor job A1 on component 0.
	{
		sys := scenario.Fig10(seed, diagnosis.Options{}, nil)
		sys.Injector.Bohrbug(sys.Sensor, scenario.ChSpeed,
			func(v float64, now sim.Time) bool { return v > 55 }, 400)
		sys.Run(3000)
		rejected := sys.Control.Impl.(*component.ControlJob).RejectedInputs
		voterOK := sys.Voter.NoMajority == 0
		v, ok := sys.Diag.VerdictOf(core.SoftwareFRU(0, "A/A1"))
		verdict := "-"
		if ok {
			verdict = v.Class.String()
		}
		contained := voterOK && sys.Sink.Impl.(*component.SinkJob).Received > 0
		t.row("job-inherent (A1)",
			fmt.Sprintf("%d implausible inputs rejected", rejected),
			"none", "none (no vote lost)",
			"job A/A1", verdict)
		metrics["job_fault_contained"] = b2f(contained)
		metrics["job_fault_localized"] = b2f(ok && core.JobInherentSoftware.Matches(v.Class))
	}

	// (b) Component-internal fault on component 2 (hosts A3, C2, S2).
	{
		sys := scenario.Fig10(seed+1, diagnosis.Options{}, nil)
		sys.Run(500)
		votedBefore := sys.Voter.Voted
		sys.Injector.PermanentFailSilent(2, sys.Cluster.Sched.Now().Add(20*sim.Millisecond))
		sys.Run(2500)
		votes := sys.Voter.Voted - votedBefore
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
			fmt.Sprintf("S2 lost, TMR masked (%d/%d votes)", votes, int64(2500)),
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
