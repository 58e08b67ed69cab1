package diagnosis_test

import (
	"context"
	"testing"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/tt"
)

// System-level invariants that must hold for every verdict the assessor
// ever emits, across a sweep of single-fault scenarios.

func TestVerdictInvariants(t *testing.T) {
	for _, kind := range scenario.AllKinds() {
		sys := scenario.Fig10(900+uint64(kind)*77, diagnosis.Options{},
			[]scenario.InjectPlan{{Kind: kind, At: sim.Time(300 * sim.Millisecond)}})
		sys.Cluster.RunRounds(context.Background(), 3000)

		for _, v := range sys.Diag.Assessor.Emitted() {
			// 1. The action always follows the Fig. 11 mapping for the
			//    diagnosed class (modulo the software-update flag, which
			//    is off here).
			if want := core.ActionFor(v.Class, false); v.Action != want {
				t.Errorf("%v: verdict %v carries action %v, mapping says %v",
					kind, v.Class, v.Action, want)
			}
			// 2. Hardware classes attach to hardware FRUs, job classes to
			//    software FRUs.
			switch v.Class {
			case core.ComponentExternal, core.ComponentBorderline, core.ComponentInternal:
				if !v.FRU.IsHardware() {
					t.Errorf("%v: hardware class %v on software FRU %v", kind, v.Class, v.FRU)
				}
			case core.JobBorderline, core.JobInherent, core.JobInherentSoftware, core.JobInherentSensor:
				if v.FRU.IsHardware() {
					t.Errorf("%v: job class %v on hardware FRU %v", kind, v.Class, v.FRU)
				}
			}
			// 3. Confidence is a probability-like score.
			if v.Confidence <= 0 || v.Confidence > 1 {
				t.Errorf("%v: confidence %v out of range", kind, v.Confidence)
			}
			// 4. A verdict implies evidence: the subject has symptoms in
			//    the retained history — checkable only while the emission
			//    epoch still lies inside the retention horizon (verdicts
			//    are sticky; their evidence may age out afterwards).
			hist := sys.Diag.Assessor.Hist
			retainedFrom := hist.Latest() - hist.RetainGranules
			if v.At.Micros()/1000 > retainedFrom { // 1 ms rounds → granule ≈ ms
				if hist.Count(v.Subject, 0, hist.Latest(), nil) == 0 {
					t.Errorf("%v: verdict for %v without any retained symptoms", kind, v.FRU)
				}
			}
		}

		// 5. Trust levels stay in [0,1] for every FRU.
		for i := 0; i < sys.Diag.Reg.Len(); i++ {
			tr := float64(sys.Diag.Assessor.Trust(diagnosis.FRUIndex(i)))
			if tr < 0 || tr > 1 {
				t.Fatalf("%v: trust %v out of bounds", kind, tr)
			}
		}
	}
}

// No verdict may ever name the diagnostic analysis host as a removal
// candidate in these single-fault scenarios (faults target components
// 0..2), and fault-free FRUs must keep full trust.
func TestInnocentFRUsKeepTrust(t *testing.T) {
	sys := scenario.Fig10(999, diagnosis.Options{}, []scenario.InjectPlan{
		{At: sim.Time(200 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 0}},
	})
	sys.Cluster.RunRounds(context.Background(), 2000)
	for _, n := range []int{1, 2, 3} {
		hw, _ := sys.Diag.Reg.HardwareIndex(tt.NodeID(n))
		if tr := float64(sys.Diag.Assessor.Trust(hw)); tr < 0.99 {
			t.Errorf("innocent component %d trust = %v", n, tr)
		}
	}
}
