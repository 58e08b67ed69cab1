// Command decos-sim runs one DECOS cluster with an optional fault
// injection and prints the diagnostic outcome: per-FRU verdicts, trust
// levels, the OBD baseline's trouble codes, and the membership view.
// Given a fleet campaign pack it runs the whole campaign instead.
//
// Usage:
//
//	decos-sim [-seed N] [-rounds N] [-fault kind] [-at ms] [-classifier C]
//	          [-v] [-metrics N] [-checkpoint-every N] [-checkpoint-dir DIR]
//	decos-sim -scenario pack.json [-seed N] [-rounds N] [-classifier C] [-v] ...
//
// -classifier picks the diagnostic pipeline's classification stage:
// decos (the paper's rule engine, default), obd (the threshold
// baseline) or bayes (the Bayesian posterior stage). With -scenario it
// overrides the pack's own classifier selection.
//
// Fault kinds: emi seu connector-tx connector-rx wearout intermittent
// permanent quartz config bohrbug heisenbug job-crash sensor-stuck
// sensor-drift power-dip (empty = healthy run).
//
// With -scenario the cluster is built from a declarative scenario pack
// (a JSON manifest, see packs/) instead of the built-in Fig. 10
// setup: topology, fault mix and environment profiles all come from the
// manifest. Explicit -seed/-rounds flags override the pack's values;
// -fault is rejected (declare faults in the pack instead).
//
// A fleet campaign pack runs every vehicle of the campaign and prints the
// audited fleet outcome of the selected classification stage and of the
// OBD baseline, plus false alarms on the fault-free vehicles; -v adds one
// CSV row per incident. -trace, -checkpoint-every and -metrics describe a
// single cluster and are rejected for campaign packs. An interrupted
// campaign prints the vehicles that completed and exits 130.
//
// With -checkpoint-every N the engine state is serialized every N rounds
// to DIR/ckpt_<rounds>.bin (the number is the count of completed rounds,
// i.e. the StateVersion of the restored engine). decos-whatif restores
// these files for counterfactual replay. Injections are routed through
// the engine's fault manifest either way, so checkpoints always
// reconstruct them.
//
// With -metrics N the run is instrumented with the telemetry registry and
// a one-line JSON snapshot is dumped to stderr every N rounds (and once at
// the end). Dumps happen between rounds on the simulator thread, so the
// run stays deterministic and race-free; with the flag off no telemetry is
// attached at all and the output is bit-identical to earlier releases.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/maintenance"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/telemetry"
	"decos/internal/trace"
)

func main() {
	seed := flag.Uint64("seed", 1, "master seed")
	rounds := flag.Int64("rounds", 3000, "TDMA rounds to simulate (1 ms each)")
	scenarioPath := flag.String("scenario", "", "build the cluster from a scenario pack (JSON manifest)")
	classifier := flag.String("classifier", "", "classification stage: decos (default), obd or bayes; overrides the pack's selection")
	faultName := flag.String("fault", "", "fault kind to inject (empty = healthy)")
	atMS := flag.Int64("at", 300, "injection time in ms")
	verbose := flag.Bool("v", false, "print the fault-error-failure chain and symptom stats (campaign packs: per-incident CSV)")
	tracePath := flag.String("trace", "", "write an event trace to this file")
	traceFormat := flag.String("trace-format", "ndjson", "trace encoding: ndjson or binary")
	metricsEvery := flag.Int64("metrics", 0, "dump a telemetry snapshot to stderr every N rounds (0 = off)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "write an engine checkpoint every N rounds (0 = off)")
	ckptDir := flag.String("checkpoint-dir", ".", "directory for ckpt_<rounds>.bin files")
	flag.Parse()

	if *classifier != "" && !slices.Contains(pack.Classifiers, *classifier) {
		fmt.Fprintf(os.Stderr, "unknown classifier %q; pick one of: %s\n", *classifier, strings.Join(pack.Classifiers, " "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var m *pack.Manifest
	if *scenarioPath != "" {
		m = loadPack(*scenarioPath, *faultName, *classifier, seed, rounds)
		if m.Campaign != nil {
			os.Exit(runCampaign(ctx, scenario.CampaignFromManifest(m), *verbose))
		}
	}

	var metrics *telemetry.Registry
	if *metricsEvery > 0 {
		metrics = telemetry.New()
	}
	eopts := []engine.Option{engine.WithTelemetry(metrics)}
	if *ckptEvery > 0 {
		dir := *ckptDir
		eopts = append(eopts, engine.WithCheckpointSink(func(round int64, data []byte) error {
			// round is the 0-based index of the round just completed;
			// name the file by completed-round count = restored
			// StateVersion, so decos-whatif can pick by round number.
			return os.WriteFile(filepath.Join(dir, fmt.Sprintf("ckpt_%d.bin", round+1)), data, 0o644)
		}, *ckptEvery))
	}

	var eng *engine.Engine
	if m != nil {
		var err error
		if eng, err = m.Engine(eopts...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		eopts = append(eopts, pack.ClassifierOptions(*classifier)...)
		// The injection rides the engine's fault manifest (not a post-build
		// call) so a checkpoint restore reconstructs it.
		var plan []scenario.InjectPlan
		if *faultName != "" {
			kind, ok := scenario.ParseKind(*faultName)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown fault kind %q; known kinds:\n", *faultName)
				for _, k := range scenario.AllKinds() {
					fmt.Fprintf(os.Stderr, "  %s\n", k)
				}
				os.Exit(2)
			}
			plan = append(plan, scenario.InjectPlan{
				Kind:    kind,
				At:      sim.Time(*atMS) * sim.Time(sim.Millisecond),
				Horizon: sim.Time(*rounds) * sim.Time(sim.Millisecond),
			})
		}
		eng = scenario.Fig10Faulted(*seed, diagnosis.Options{}, plan, eopts...).Engine
	}

	for _, act := range eng.Injector.Ledger() {
		fmt.Printf("injected: %s\n", act)
	}
	var rec *trace.Recorder
	if *tracePath != "" {
		format, err := trace.ParseFormat(*traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sink := trace.NewSink(f, format)
		// Close the sink (not just the file) on exit: the binary encoding
		// writes its stream header on close for an event-free run.
		defer sink.Close()
		rec = trace.AttachSink(eng.Cluster, eng.Diag, eng.Injector,
			sink, trace.Options{TrustEveryEpochs: 5})
	}

	if err := runWithMetrics(ctx, eng, *rounds, *metricsEvery, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %d of %d rounds\n", eng.Cluster.Round(), *rounds)
		os.Exit(130)
	}
	if err := eng.CkptErr; err != nil {
		fmt.Fprintf(os.Stderr, "checkpointing failed: %v\n", err)
		os.Exit(1)
	}
	now := eng.Cluster.Sched.Now()
	fmt.Printf("simulated %d rounds (%v), %d events, %d symptoms disseminated\n\n",
		*rounds, now, eng.Cluster.Sched.Fired(), eng.Diag.Assessor.SymptomsReceived)
	if rec != nil {
		fmt.Printf("trace: %d events written to %s\n\n", rec.Events, *tracePath)
	}

	fmt.Println("== DECOS diagnostic DAS ==")
	verdicts := eng.Diag.Assessor.CurrentAll()
	if len(verdicts) == 0 {
		fmt.Println("no findings: all FRUs conform to their specifications")
	}
	for _, v := range verdicts {
		fmt.Printf("  %-22s %-22s pattern=%-18s action=%-20s conf=%.2f\n",
			v.FRU, v.Class, v.Pattern, v.Action, v.Confidence)
	}

	fmt.Println("\n== trust levels ==")
	for i := 0; i < eng.Diag.Reg.Len(); i++ {
		idx := diagnosis.FRUIndex(i)
		tr := eng.Diag.Assessor.Trust(idx)
		bar := renderBar(float64(tr), 30)
		fmt.Printf("  %-22s %s %.3f\n", eng.Diag.Reg.FRU(idx), bar, float64(tr))
	}

	fmt.Println("\n== OBD baseline ==")
	dtcs := eng.OBD.DTCs()
	if len(dtcs) == 0 {
		fmt.Println("no stored DTCs")
	}
	for _, d := range dtcs {
		fmt.Printf("  %s\n", d)
	}

	if len(eng.Injector.Ledger()) > 0 {
		fmt.Println("\n== maintenance audit ==")
		fmt.Print(maintenance.Evaluate(eng.Injector.Ledger(), eng.Diag).Format())
	}

	if *verbose {
		for _, a := range eng.Injector.Ledger() {
			fmt.Printf("\n== chain for %s ==\n  %s\n", a, a.Chain.String())
		}
		fmt.Println("\n== per-monitor symptom counts ==")
		for _, m := range eng.Diag.Monitors {
			fmt.Printf("  component %d: %d symptoms sent\n", m.Node, m.SymptomsSent)
		}
		round := eng.Cluster.Round()
		fmt.Println("\n== membership (view of component 0) ==")
		for _, c := range eng.Cluster.Components() {
			fmt.Printf("  component %d member=%v\n", c.ID,
				eng.Cluster.Bus.Membership(0).Member(c.ID, round))
		}
	}

	// Exit non-zero when a culprit was missed, for scripting.
	if len(eng.Injector.Ledger()) > 0 {
		r := maintenance.Evaluate(eng.Injector.Ledger(), eng.Diag)
		if r.Missed > 0 {
			os.Exit(1)
		}
	}
}

// loadPack loads and validates a scenario pack manifest. Explicit
// -seed/-rounds/-classifier flags override the pack's values; seed and
// rounds are written back so the caller's run length follows the pack.
// Flags that describe one recorded cluster are rejected for campaign
// packs.
func loadPack(path, faultName, classifier string, seed *uint64, rounds *int64) *pack.Manifest {
	if faultName != "" {
		fmt.Fprintln(os.Stderr, "-fault cannot be combined with -scenario: declare faults in the pack")
		os.Exit(2)
	}
	m, err := pack.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			m.Seed = *seed
		case "rounds":
			m.Rounds = *rounds
		case "classifier":
			m.Classifier = classifier
		case "trace", "checkpoint-every", "metrics":
			if m.Campaign != nil {
				fmt.Fprintf(os.Stderr, "-%s cannot be combined with a fleet campaign pack\n", f.Name)
				os.Exit(2)
			}
		}
	})
	if err := m.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	*seed, *rounds = m.Seed, m.Rounds
	fmt.Printf("scenario pack: %s (%s)\n", m.Name, path)
	return m
}

// runCampaign runs a fleet campaign and prints the audited outcome of the
// selected classification stage and of the OBD baseline; csv adds one row
// per incident of the selected stage. It returns the exit status: 130
// when the run was interrupted (the completed vehicles are still
// reported), 0 otherwise.
func runCampaign(ctx context.Context, c scenario.Campaign, csv bool) int {
	res := c.RunContext(ctx)
	if res.Partial {
		fmt.Fprintf(os.Stderr, "interrupted: %d of %d vehicles completed; partial results follow\n",
			res.Completed, c.Vehicles)
	}

	if csv {
		fmt.Println("incident,true_class,persistence,culprit,diagnosed,action,correct_class,correct_action,nff,missed,cost")
		for _, o := range res.DECOS.Outcomes {
			a := o.Activation
			fmt.Printf("%d,%s,%s,%q,%s,%s,%v,%v,%v,%v,%.0f\n",
				a.ID, a.Class, a.Persistence, a.Culprit.String(),
				o.Diagnosed, o.Action, o.CorrectClass, o.CorrectAction, o.NFF, o.Missed, o.Cost)
		}
		fmt.Println()
	}

	stage := "DECOS diagnostic DAS"
	if c.Classifier != "" && c.Classifier != pack.ClassifierDECOS {
		stage = c.Classifier + " classification stage"
	}
	fmt.Printf("campaign: %d vehicles × %d rounds, %d fault-free\n\n",
		c.Vehicles, c.Rounds, res.FaultFreeCount)
	fmt.Printf("== %s ==\n", stage)
	fmt.Print(res.DECOS.Format())
	fmt.Printf("false alarms on healthy vehicles: %d\n\n", res.DECOSFalseAlarms)
	fmt.Println("== OBD baseline ==")
	fmt.Print(res.OBD.Format())
	fmt.Printf("false alarms on healthy vehicles: %d\n", res.OBDFalseAlarms)
	if res.Partial {
		return 130
	}
	return 0
}

// runWithMetrics advances the engine by rounds TDMA rounds. With a
// metrics interval it runs in round-aligned chunks against the same
// absolute deadlines a single run would pass through, dumping a snapshot
// after each chunk — deterministic and bit-identical to the unchunked run.
func runWithMetrics(ctx context.Context, eng *engine.Engine, rounds, every int64, metrics *telemetry.Registry) error {
	if every <= 0 || metrics == nil {
		return eng.Run(ctx, rounds)
	}
	roundUS := eng.Cluster.Cfg.RoundDuration().Micros()
	for done := int64(0); done < rounds; {
		n := every
		if rem := rounds - done; n > rem {
			n = rem
		}
		done += n
		if err := eng.Cluster.Sched.RunUntilCtx(ctx, sim.Time(done*roundUS)-1); err != nil {
			return err
		}
		_ = metrics.WriteJSON(os.Stderr)
	}
	return nil
}

func renderBar(v float64, width int) string {
	n := int(v*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	out := make([]byte, width)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
