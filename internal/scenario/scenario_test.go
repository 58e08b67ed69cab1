package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/pack"
	"decos/internal/sim"
)

func TestFig10HealthyOperation(t *testing.T) {
	sys := Fig10(1, diagnosis.Options{}, nil)
	tmr := sys.Cluster.DAS("S").JobNamed("V").Impl.(*component.VoterJob)
	sys.Cluster.RunRounds(context.Background(), 2000)
	// The pipeline actuates.
	if _, ok := sys.Cluster.Env.LastActuation("brake"); !ok {
		t.Error("DAS A pipeline produced no actuation")
	}
	// The TMR set votes continuously.
	if tmr.Voted < 1900 {
		t.Errorf("voter succeeded only %d/2000 rounds", tmr.Voted)
	}
	if tmr.NoMajority != 0 {
		t.Errorf("healthy TMR lost majority %d times", tmr.NoMajority)
	}
	// No diagnostic verdicts.
	if n := len(sys.Diag.Assessor.Emitted()); n != 0 {
		t.Errorf("healthy system produced %d verdicts: %v", n, sys.Diag.Assessor.Emitted())
	}
	if len(sys.OBD.DTCs()) != 0 {
		t.Errorf("healthy system stored DTCs: %v", sys.OBD.DTCs())
	}
}

func TestFig10Determinism(t *testing.T) {
	plan := []InjectPlan{{At: sim.Time(50 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "connector-tx", Component: 0, Rate: 0.3}}}
	a := Fig10(42, diagnosis.Options{}, plan)
	b := Fig10(42, diagnosis.Options{}, plan)
	a.Cluster.RunRounds(context.Background(), 1500)
	b.Cluster.RunRounds(context.Background(), 1500)
	if a.Diag.Assessor.SymptomsReceived != b.Diag.Assessor.SymptomsReceived {
		t.Error("symptom streams diverged for identical seeds")
	}
	va, oka := a.Diag.VerdictOf(core.HardwareFRU(0))
	vb, okb := b.Diag.VerdictOf(core.HardwareFRU(0))
	if oka != okb || va.Class != vb.Class || va.Pattern != vb.Pattern {
		t.Errorf("verdicts diverged: %v/%v vs %v/%v", va, oka, vb, okb)
	}
}

func TestFig10ContainmentMatrix(t *testing.T) {
	// Fig. 10's core claim: a job-inherent fault stays inside its DAS; a
	// component-internal fault hits jobs of multiple DASs on that
	// component; TMR masks the single-component fault.
	// Kill component 2 — it hosts A3 (DAS A), C2 (DAS C) and S2 (DAS S) —
	// 50 ms after round 500.
	sys := Fig10(7, diagnosis.Options{}, []InjectPlan{
		{At: RoundsAt(500).Add(50 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 2}},
	})
	tmr := sys.Cluster.DAS("S").JobNamed("V").Impl.(*component.VoterJob)
	sys.Cluster.RunRounds(context.Background(), 500)
	votedBefore := tmr.Voted
	sys.Cluster.RunRounds(context.Background(), 2000)
	// TMR masked the loss of S2: voting continued.
	if tmr.Voted-votedBefore < 1900 {
		t.Errorf("TMR did not mask component loss: %d votes in 2000 rounds",
			tmr.Voted-votedBefore)
	}
	if tmr.Missing[1] < 1900 { // S2 is replica index 1
		t.Errorf("replica S2 not reported missing: %v", tmr.Missing)
	}
	// DAS A (sensor on c0, control on c1) keeps running: the sensor chain
	// up to the control command is unaffected.
	if control := sys.Cluster.DAS("A").JobNamed("A2"); control.Steps < 2400 {
		t.Errorf("control job starved: %d steps", control.Steps)
	}
	// Diagnosis blames the component, not the jobs.
	v, ok := sys.Diag.VerdictOf(core.HardwareFRU(2))
	if !ok || v.Class != core.ComponentInternal {
		t.Errorf("component 2 verdict: %v ok=%v", v, ok)
	}
	for _, job := range []string{"A/A3", "C/C2", "S/S2"} {
		if v, ok := sys.Diag.VerdictOf(core.SoftwareFRU(2, job)); ok {
			t.Errorf("job %s blamed for hardware fault: %v (%s)", job, v.Class, v.Pattern)
		}
	}
}

func TestFig10JobFaultContained(t *testing.T) {
	sys := Fig10(8, diagnosis.Options{}, []InjectPlan{
		{Fault: &pack.FaultSpec{Kind: "bohrbug", Job: "A/A1", Channel: ChSpeed, Threshold: 55, Value: 400}},
	})
	sys.Cluster.RunRounds(context.Background(), 2500)
	// Only the faulty job is accused; the TMR set and DAS C are untouched.
	if sys.Cluster.DAS("S").JobNamed("V").Impl.(*component.VoterJob).NoMajority != 0 {
		t.Error("job fault in DAS A disturbed DAS S voting")
	}
	v, ok := sys.Diag.VerdictOf(core.SoftwareFRU(0, "A/A1"))
	if !ok || (v.Class != core.JobInherent && v.Class != core.JobInherentSensor) {
		t.Errorf("A1 verdict: %v ok=%v", v, ok)
	}
	if v, ok := sys.Diag.VerdictOf(core.HardwareFRU(0)); ok && v.Class != core.ComponentExternal {
		t.Errorf("hardware blamed: %v", v.Class)
	}
}

// TestInjectCoversAllKinds draws every campaign kind unpinned and pinned
// to components 0, 1 and 2. Each draw must be a valid pack fault: as the
// only fault of a fig10 pack it passes Manifest.Validate, the campaign's
// well-formedness oracle, and as an explicit plan entry it leaves exactly
// one ledger entry. Each kind then runs once from Fig10's plan.
func TestInjectCoversAllKinds(t *testing.T) {
	at := sim.Time(100 * sim.Millisecond)
	for _, kind := range AllKinds() {
		for _, comp := range []int{-1, 0, 1, 2} {
			sys := Fig10(100+uint64(kind), diagnosis.Options{}, nil)
			f := kind.Spec(sys.Cluster.Streams.Stream("campaign"), comp)
			if comp >= 0 && f.Component >= 0 && f.Component != comp {
				t.Errorf("%v pinned to %d: spec targets component %d", kind, comp, f.Component)
			}
			m := pack.Manifest{Pack: pack.Version, Name: "campaign-draw", Rounds: 1000,
				Topology: pack.Topology{Kind: "fig10"}, Faults: []pack.FaultSpec{f}}
			if err := m.Validate(); err != nil {
				t.Errorf("%v pinned to %d: spec %+v is not a valid pack fault: %v", kind, comp, f, err)
			}
			planned := Fig10(100+uint64(kind), diagnosis.Options{}, []InjectPlan{{At: at, Fault: &f}})
			if n := len(planned.Injector.Ledger()); n != 1 {
				t.Errorf("%v pinned to %d: ledger has %d entries", kind, comp, n)
			}
		}
		sys := Fig10(100+uint64(kind), diagnosis.Options{}, []InjectPlan{{Kind: kind, At: at}})
		if n := len(sys.Injector.Ledger()); n != 1 {
			t.Errorf("%v: plan left %d ledger entries", kind, n)
		}
		sys.Cluster.RunRounds(context.Background(), 200) // smoke: nothing panics
	}
}

func TestCampaignSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	c := Campaign{
		Vehicles:       12,
		Rounds:         2500,
		Seed:           1,
		FaultFreeShare: 0.25,
	}
	res := c.Run()
	total := res.DECOS.Total + res.FaultFreeCount
	if total != 12 {
		t.Fatalf("vehicles accounted: %d", total)
	}
	// The headline claim: DECOS classification is far better than OBD.
	if res.DECOS.ActionAccuracy() <= res.OBD.ActionAccuracy() {
		t.Errorf("DECOS action accuracy %.2f not better than OBD %.2f",
			res.DECOS.ActionAccuracy(), res.OBD.ActionAccuracy())
	}
	if res.DECOS.NFFRatio() > 0.5 && res.DECOS.TotalRemovals > 2 {
		t.Errorf("DECOS NFF ratio suspiciously high: %.2f (%d/%d)",
			res.DECOS.NFFRatio(), res.DECOS.NFFRemovals, res.DECOS.TotalRemovals)
	}
	if res.DECOSFalseAlarms > 0 {
		t.Errorf("DECOS raised %d false removal alarms on healthy vehicles", res.DECOSFalseAlarms)
	}
}

func TestCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	base := Campaign{Vehicles: 8, Rounds: 2000, Seed: 5, FaultFreeShare: 0.25}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a, b := seq.Run(), par.Run()
	if a.DECOS.Total != b.DECOS.Total ||
		a.DECOS.CorrectClass != b.DECOS.CorrectClass ||
		a.DECOS.NFFRemovals != b.DECOS.NFFRemovals ||
		a.OBD.CorrectActions != b.OBD.CorrectActions ||
		a.FaultFreeCount != b.FaultFreeCount {
		t.Errorf("parallel campaign diverged:\nseq: %+v\npar: %+v", a.DECOS, b.DECOS)
	}
	for i := range a.DECOS.Outcomes {
		if a.DECOS.Outcomes[i].Diagnosed != b.DECOS.Outcomes[i].Diagnosed ||
			a.DECOS.Outcomes[i].Action != b.DECOS.Outcomes[i].Action {
			t.Fatalf("outcome %d diverged", i)
		}
	}
}

func TestNormalizeMixDegenerate(t *testing.T) {
	// A mix without any positive weight used to make sample() index
	// kinds[-1]; it must instead fall back to the default distribution.
	defKinds, defWeights := normalizeMix(DefaultMix())
	for name, mix := range map[string]map[FaultKind]float64{
		"empty":       {},
		"all-zero":    {KindEMI: 0, KindSEU: 0},
		"negative":    {KindEMI: -1},
		"nil-entries": {KindWearout: 0},
	} {
		kinds, weights := normalizeMix(mix)
		if len(kinds) != len(defKinds) || len(weights) != len(defWeights) {
			t.Fatalf("%s: fallback mismatch: %d kinds, want %d", name, len(kinds), len(defKinds))
		}
		for i := range kinds {
			if kinds[i] != defKinds[i] || weights[i] != defWeights[i] {
				t.Fatalf("%s: fallback diverges from DefaultMix at %d", name, i)
			}
		}
	}
	// End-to-end: a campaign configured with a degenerate mix must run.
	c := Campaign{Vehicles: 1, Rounds: 600, Seed: 3, Mix: map[FaultKind]float64{KindEMI: 0}}
	if res := c.Run(); res.DECOS.Total+res.FaultFreeCount != 1 {
		t.Fatalf("vehicle unaccounted: %+v", res)
	}
}

func TestDefaultMixNormalizes(t *testing.T) {
	kinds, weights := normalizeMix(DefaultMix())
	if len(kinds) != len(AllKinds()) {
		t.Errorf("mix covers %d kinds, want %d", len(kinds), len(AllKinds()))
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v", sum)
	}
	rng := sim.NewRNG(1)
	counts := make([]int, len(kinds))
	for i := 0; i < 10000; i++ {
		counts[sample(rng, weights)]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("kind %v never sampled", kinds[i])
		}
	}
}

// TestCampaignCancellation: cancelling a campaign mid-run returns a
// partial, flagged result — only completed vehicles merged — and leaves no
// worker goroutines behind.
func TestCampaignCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	before := runtime.NumGoroutine()
	c := Campaign{
		Vehicles:       16,
		Rounds:         4000,
		Seed:           3,
		FaultFreeShare: 0.25,
		Workers:        4,
	}
	// Cancel once the first vehicle's trace lands: some work done, most
	// vehicles still pending.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res := c.RunTracedContext(ctx, func(v int, blob []byte) {
		if len(blob) == 0 {
			t.Errorf("vehicle %d: empty trace", v)
		}
		once.Do(cancel)
	})
	if !res.Partial {
		t.Fatal("cancelled campaign not flagged Partial")
	}
	if res.Completed == 0 || res.Completed >= c.Vehicles {
		t.Fatalf("Completed = %d, want in (0, %d)", res.Completed, c.Vehicles)
	}
	if got := res.DECOS.Total + res.FaultFreeCount; got > res.Completed {
		t.Fatalf("merged %d vehicles but only %d completed", got, res.Completed)
	}

	// Workers must have exited; allow the runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestCampaignContextComplete: an uncancelled context is invisible — the
// result matches Run() exactly.
func TestCampaignContextComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	base := Campaign{Vehicles: 6, Rounds: 1500, Seed: 9, FaultFreeShare: 0.25}
	a := base.Run()
	b := base.RunContext(context.Background())
	if b.Partial {
		t.Fatal("complete campaign flagged Partial")
	}
	if b.Completed != base.Vehicles {
		t.Fatalf("Completed = %d, want %d", b.Completed, base.Vehicles)
	}
	if a.DECOS.Total != b.DECOS.Total || a.DECOS.CorrectClass != b.DECOS.CorrectClass ||
		a.FaultFreeCount != b.FaultFreeCount {
		t.Errorf("context run diverged from plain run:\na: %+v\nb: %+v", a.DECOS, b.DECOS)
	}

	// A classifier name that selects no stage fails before any vehicle
	// runs, instead of running the DECOS stage under that name.
	bad := base
	bad.Classifier, bad.Workers = "Bayes", 1
	ran := 0
	func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), `unknown classifier "Bayes"`) {
				t.Errorf("classifier %q: recovered %v, want an unknown-classifier panic", bad.Classifier, r)
			}
		}()
		bad.RunTracedContext(context.Background(), func(int, []byte) { ran++ })
	}()
	if ran != 0 {
		t.Errorf("classifier %q: %d vehicles ran before the campaign failed", bad.Classifier, ran)
	}
}
