package experiments

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
	"decos/internal/tt"
)

// A1WindowSweep varies the ONA correlation window and measures both final
// classification accuracy and the detection latency (time from fault
// activation to the first correct verdict): short windows classify fast
// patterns equally well but forfeit slow-trend evidence; latency is bounded
// below by the epoch period and the recurrence evidence the α-count needs.
func A1WindowSweep(seed uint64) *Result {
	kinds := []scenario.FaultKind{
		scenario.KindSEU, scenario.KindConnectorTx, scenario.KindWearout,
		scenario.KindPermanent, scenario.KindBohrbug,
	}
	windows := []int64{50, 100, 400, 800}
	t := newTable("window [granules]", "correct", "of", "accuracy", "mean latency")
	metrics := map[string]float64{}
	const injectAt = 300 * sim.Millisecond
	for _, w := range windows {
		correct, total := 0, 0
		var latencySum sim.Duration
		latencyN := 0
		for i, kind := range kinds {
			for rep := 0; rep < 2; rep++ {
				sys, act := faultedFig10(seed+uint64(i)*17+uint64(rep)*71, diagnosis.Options{
					WindowGranules: w,
					RetainGranules: 3 * w,
				}, kind)
				sys.Cluster.RunRounds(context.Background(), 3000)
				subject := act.Culprit
				if subject.Component < 0 && len(act.Affected) > 0 {
					subject = act.Affected[0]
				}
				total++
				if v, ok := sys.Diag.VerdictOf(subject); ok && act.Class.Matches(v.Class) {
					correct++
				}
				// First correct emission = detection latency.
				idx, _ := sys.Diag.Reg.Index(subject)
				for _, v := range sys.Diag.Assessor.Emitted() {
					if v.Subject == idx && act.Class.Matches(v.Class) {
						latencySum += v.At.Sub(sim.Time(injectAt))
						latencyN++
						break
					}
				}
			}
		}
		acc := float64(correct) / float64(total)
		mean := sim.Duration(0)
		if latencyN > 0 {
			mean = latencySum / sim.Duration(latencyN)
		}
		t.row(w, correct, total, pct(acc), mean.String())
		metrics[fmt.Sprintf("acc_w%d", w)] = acc
		metrics[fmt.Sprintf("latency_ms_w%d", w)] = float64(mean) / float64(sim.Millisecond)
	}
	return &Result{
		ID:      "A1",
		Figure:  "ablation — ONA correlation window vs accuracy and detection latency",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// A2AlphaSweep varies the α-count decay K and measures the
// external-vs-internal discrimination the paper adopts the mechanism for:
// an isolated SEU must stay external, a recurring internal transient must
// be flagged internal. Small K forgets recurrences; K near 1 works until
// it starts accumulating isolated transients.
func A2AlphaSweep(seed uint64) *Result {
	t := newTable("alpha K", "SEU → external", "intermittent → internal", "both correct")
	metrics := map[string]float64{}
	for _, k := range a2Ks {
		seuOK, intOK := 0, 0
		for rep := 0; rep < a2Reps; rep++ {
			seu, intermittent := a2Runs(seed, k, rep)
			sysA := seu.build()
			sysA.Cluster.RunRounds(context.Background(), seu.rounds)
			if v, ok := sysA.Diag.VerdictOf(core.HardwareFRU(1)); ok && v.Class == core.ComponentExternal {
				seuOK++
			}
			sysB := intermittent.build()
			sysB.Cluster.RunRounds(context.Background(), intermittent.rounds)
			if v, ok := sysB.Diag.VerdictOf(core.HardwareFRU(1)); ok && v.Class == core.ComponentInternal {
				intOK++
			}
		}
		t.row(k, frac(seuOK, a2Reps), frac(intOK, a2Reps), frac(min(seuOK, intOK), a2Reps))
		metrics[fmt.Sprintf("seu_ok_k%.2f", k)] = float64(seuOK) / a2Reps
		metrics[fmt.Sprintf("int_ok_k%.2f", k)] = float64(intOK) / a2Reps
	}
	return &Result{
		ID:      "A2",
		Figure:  "ablation — α-count decay vs transient/internal discrimination",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// A2's sweep: the α-count decays it tries, and the replicates per decay.
var a2Ks = []float64{0.3, 0.6, 0.9, 0.97}

const a2Reps = 3

// a2Runs returns A2's rep-th pair of runs at decay k, both faulting
// component 1 at 300 ms: an isolated SEU and a recurring internal
// transient.
func a2Runs(seed uint64, k float64, rep int) (seu, intermittent run) {
	opts := diagnosis.Options{AlphaK: k}
	return run{seed: seed + uint64(rep)*31, opts: opts, rounds: 3000,
			plan: plan(ms(300), pack.FaultSpec{Kind: "seu", Component: 1})},
		run{seed: seed + uint64(rep)*37 + 1000, opts: opts, rounds: 3000,
			plan: plan(ms(300), pack.FaultSpec{Kind: "intermittent", Component: 1, RatePerHour: 3600 * 6})}
}

// A3Encapsulation removes the slot-guardian (strong fault isolation, core
// service C3) and shows that FRU-level attribution collapses: a single
// babbling component destroys every slot, all components accumulate
// identical failure evidence, and the culprit can no longer be told apart
// from its victims (the symptom field looks like one massive external
// disturbance) — the architectural justification for error containment as
// a prerequisite of maintenance-oriented classification.
func A3Encapsulation(seed uint64) *Result {
	measure := func(guardian bool) (accused int, culpritFound bool, disturbed int) {
		r := a3Run(seed, guardian)
		sys := r.build()
		sys.Cluster.RunRounds(context.Background(), r.rounds)
		for _, c := range sys.Cluster.Components() {
			v, ok := sys.Diag.VerdictOf(core.HardwareFRU(int(c.ID)))
			if !ok {
				continue
			}
			disturbed++
			if v.Action.Removal() {
				accused++
				if c.ID == tt.NodeID(1) {
					culpritFound = true
				}
			}
		}
		return accused, culpritFound, disturbed
	}
	onAccused, onFound, onDisturbed := measure(true)
	offAccused, offFound, offDisturbed := measure(false)

	t := newTable("configuration", "FRUs with verdicts", "removal verdicts", "culprit identified")
	t.row("guardian enabled", onDisturbed, onAccused, onFound)
	t.row("guardian disabled", offDisturbed, offAccused, offFound)
	return &Result{
		ID:     "A3",
		Figure: "ablation — classification with/without strong fault isolation",
		Table:  t.String(),
		Metrics: map[string]float64{
			"guardian_on_accused":   float64(onAccused),
			"guardian_off_accused":  float64(offAccused),
			"guardian_on_correct":   b2f(onFound && onAccused == 1),
			"guardian_off_correct":  b2f(offFound && offAccused == 1),
			"guardian_off_verdicts": float64(offDisturbed),
		},
	}
}

// a3Run is A3's run with the slot guardian on or off: component 1
// babbles from 300 ms on.
func a3Run(seed uint64, guardian bool) run {
	return run{seed: seed, rounds: 3000,
		plan:  plan(ms(300), pack.FaultSpec{Kind: "permanent-babbling", Component: 1}),
		extra: []engine.Option{engine.WithBuild(func(cl *component.Cluster) { cl.Bus.GuardianEnabled = guardian })},
	}
}

// A4QueueSweep varies the receive-queue capacity of the event-triggered
// consumer against its Poisson traffic and measures overflow counts and
// whether the configuration ONA fires — the dimensioning question behind
// the job-borderline fault class.
func A4QueueSweep(seed uint64) *Result {
	t := newTable("queue capacity", "overflows", "configuration verdict")
	metrics := map[string]float64{}
	for _, capacity := range a4Caps {
		r := a4Run(seed, capacity)
		sys := r.build()
		sys.Cluster.RunRounds(context.Background(), r.rounds)
		over := sys.Cluster.DAS("C").JobNamed("C2").InPort(scenario.ChLoad).Stats.Overflows
		v, ok := sys.Diag.VerdictOf(core.SoftwareFRU(2, "C/C2"))
		verdict := "-"
		if ok {
			verdict = fmt.Sprintf("%s (%s)", v.Class, v.Pattern)
		}
		t.row(capacity, over, verdict)
		metrics[fmt.Sprintf("overflows_cap%d", capacity)] = float64(over)
		metrics[fmt.Sprintf("flagged_cap%d", capacity)] = b2f(ok && v.Class == core.JobBorderline)
	}
	return &Result{
		ID:      "A4",
		Figure:  "ablation — queue dimensioning vs job-borderline detection",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// a4Caps are the receive-queue capacities A4 sweeps.
var a4Caps = []int{1, 2, 4, 8, 16}

// a4Run is A4's run with C2's event queue on ChLoad dimensioned to
// capacity.
func a4Run(seed uint64, capacity int) run {
	return run{seed: seed, rounds: 3000, plan: plan(0, pack.FaultSpec{
		Kind: "misconfig-queue", Job: "C/C2", Channel: scenario.ChLoad, QueueCap: capacity,
	})}
}

// A5DiagBandwidth sweeps the virtual diagnostic network's per-component
// frame allocation under heavy simultaneous fault activity (wearout +
// connector). Symptom dissemination consumes real bandwidth: an undersized
// diagnostic segment queues and finally drops symptom records, delaying
// and starving the assessment — the engineering trade the architecture's
// VN dimensioning must make.
func A5DiagBandwidth(seed uint64) *Result {
	t := newTable("diag bytes/frame", "symptoms received", "diag-VN drops", "connector verdict", "wearout-side verdict")
	metrics := map[string]float64{}
	for _, alloc := range a5Allocs {
		r := a5Run(seed, alloc)
		sys := r.build()
		sys.Cluster.RunRounds(context.Background(), r.rounds)

		drops := 0
		for n := 0; n < 4; n++ {
			if ep := sys.Diag.Net.Endpoint(tt.NodeID(n)); ep != nil {
				drops += ep.TxOverflows
			}
		}
		vc, okC := sys.Diag.VerdictOf(core.HardwareFRU(1))
		vw, okW := sys.Diag.VerdictOf(core.HardwareFRU(0))
		cs, ws := "-", "-"
		if okC {
			cs = vc.Class.String()
		}
		if okW {
			ws = vw.Class.String()
		}
		t.row(alloc, sys.Diag.Assessor.SymptomsReceived, drops, cs, ws)
		metrics[fmt.Sprintf("received_a%d", alloc)] = float64(sys.Diag.Assessor.SymptomsReceived)
		metrics[fmt.Sprintf("drops_a%d", alloc)] = float64(drops)
		metrics[fmt.Sprintf("connector_ok_a%d", alloc)] = b2f(okC && vc.Class == core.ComponentBorderline)
	}
	return &Result{
		ID:      "A5",
		Figure:  "ablation — diagnostic-network bandwidth vs symptom loss and classification",
		Table:   t.String(),
		Metrics: metrics,
	}
}

// a5Allocs are the diagnostic-network frame allocations A5 sweeps.
var a5Allocs = []int{32, 64, 96, 128}

// a5Run is A5's run at one diagnostic allocation: component 0 wears out
// and component 1's connector frets, both from 300 ms on.
func a5Run(seed uint64, alloc int) run {
	return run{seed: seed, opts: diagnosis.Options{DiagAllocBytes: alloc}, rounds: 3000, plan: plan(ms(300),
		pack.FaultSpec{Kind: "wearout", Component: 0, TauMS: 400, BaseRatePerHour: 3600 * 4, MaxFactor: 40, DriftPerHour: 3600 * 20},
		pack.FaultSpec{Kind: "connector-tx", Component: 1, Rate: 0.3})}
}
