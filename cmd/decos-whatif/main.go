// Command decos-whatif is the counterfactual replay diagnoser: it
// restores a recorded Fig. 10 run from an engine checkpoint written by
// decos-sim -checkpoint-every, applies a fault hypothesis to one of two
// restored replicas, replays both to the horizon and reports the first
// divergent slot, the diverging FRU and a side-by-side final-verdict
// diff. Because checkpoint restores are byte-identical, every reported
// difference is attributable to the hypothesis alone.
//
// Usage:
//
//	decos-whatif -ckpt FILE | -ckpt-dir DIR
//	             -seed N -rounds N [-fault kind -at ms]
//	             -hypothesis remove|inject|wrong-fru
//	             [-target ID] [-h-fault kind] [-h-at ms] [-h-comp N]
//	             [-trace FILE] [-classifier decos|obd|bayes]
//
// -classifier must repeat the recorded run's classification stage (the
// checkpoint of a Bayesian run carries its belief state). With the
// Bayesian stage the verdict diff also renders each indicted FRU's
// posterior over fault classes on both sides.
//
// -seed/-rounds/-fault/-at must repeat the recorded run's decos-sim
// flags: the restore reconstructs the engine from the same build and
// refuses mismatches it can detect (seed, topology). With -ckpt-dir the
// tool picks the latest ckpt_<rounds>.bin at or before the hypothesis
// instant — the nearest point from which the counterfactual edit can
// still take effect. With -trace the factual replica is cross-checked
// against the recording; a mismatch aborts the analysis.
//
// Hypotheses:
//
//	remove    deactivate recorded activation -target (default #0)
//	inject    add -h-fault at -h-at ms (a fault the run did not have)
//	wrong-fru move the -target activation's fault kind to component
//	          -h-comp (default: the culprit's neighbour)
//
// Exit status: 0 = analysis ran (diverged or not — the report says
// which), 1 = I/O or restore failure, 2 = bad flags or trace mismatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"decos/internal/diagnosis"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/whatif"
)

func main() {
	ckptPath := flag.String("ckpt", "", "checkpoint file to restore from")
	ckptDir := flag.String("ckpt-dir", "", "directory of ckpt_<rounds>.bin files (picks the nearest before the hypothesis)")
	seed := flag.Uint64("seed", 1, "master seed of the recorded run")
	rounds := flag.Int64("rounds", 3000, "replay horizon in TDMA rounds (1 ms each)")
	faultName := flag.String("fault", "", "recorded run's injected fault kind (empty = healthy)")
	atMS := flag.Int64("at", 300, "recorded run's injection time in ms")
	hypName := flag.String("hypothesis", "", "remove, inject or wrong-fru")
	target := flag.Int("target", 0, "ledger activation id for remove/wrong-fru")
	hFault := flag.String("h-fault", "", "fault kind to inject (inject hypothesis)")
	hAtMS := flag.Int64("h-at", 0, "injection time in ms (inject hypothesis; 0 = at the restore point)")
	hComp := flag.Int("h-comp", -1, "target component for wrong-fru (-1 = culprit's neighbour)")
	tracePath := flag.String("trace", "", "recorded trace to cross-check the factual replica against")
	classifier := flag.String("classifier", "", "classification stage of the recorded run: decos (default), obd or bayes")
	flag.Parse()

	fail2 := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}

	if err := pack.CheckClassifier(*classifier); err != nil {
		fail2("%v", err)
	}

	kind := parseKind(*faultName, fail2)
	hyp, err := whatif.ParseHypKind(*hypName)
	if err != nil {
		fail2("%v", err)
	}
	// decos-sim's -at rule, from the pack validator's at_ms: an injection
	// before the start cannot be scheduled, one past the horizon never
	// strikes. -h-at 0 still means "at the restore point".
	horizon := scenario.RoundsAt(*rounds).Micros() / 1000
	inRun := func(name string, ms int64) {
		if ms < 0 || ms > horizon {
			fail2("%s %d: the injection must fall in the run, 0 to %d ms (-rounds %d)", name, ms, horizon, *rounds)
		}
	}
	if kind >= 0 {
		inRun("-at", *atMS)
	}
	if hyp == whatif.Inject {
		inRun("-h-at", *hAtMS)
	}

	cfg := whatif.Config{
		Seed:       *seed,
		Opts:       diagnosis.Options{},
		Rounds:     *rounds,
		Classifier: *classifier,
		Hyp: whatif.Hypothesis{
			Kind:   hyp,
			Target: *target,
			At:     sim.Time(*hAtMS) * sim.Time(sim.Millisecond),
			Comp:   *hComp,
		},
	}
	if kind >= 0 {
		cfg.Plan = []scenario.InjectPlan{{
			Kind: kind,
			At:   sim.Time(*atMS) * sim.Time(sim.Millisecond),
		}}
	}
	switch hyp {
	case whatif.Inject:
		if *hFault == "" {
			fail2("inject hypothesis needs -h-fault")
		}
		cfg.Hyp.Fault = parseKind(*hFault, fail2)
	case whatif.WrongFRU:
		if kind < 0 {
			fail2("wrong-fru hypothesis needs the recorded run's -fault")
		}
		cfg.Hyp.Fault = kind
	}

	// The hypothesis instant guides the -ckpt-dir pick: the checkpoint
	// must predate the edit for the counterfactual to express it.
	hypMS := *atMS
	if hyp == whatif.Inject {
		hypMS = *hAtMS
		if hypMS <= 0 {
			hypMS = *rounds // "at the restore point": any checkpoint works
		}
	}

	file := *ckptPath
	if file == "" {
		if *ckptDir == "" {
			fail2("need -ckpt or -ckpt-dir")
		}
		file, err = pickCheckpoint(*ckptDir, hypMS)
		if err != nil {
			fail2("%v", err)
		}
	}
	cfg.Checkpoint, err = os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Recorded, err = whatif.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
	}

	rep, err := whatif.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("restored %s: round %d (t=%v)\n", file, rep.RestoredRound, rep.RestoredAt)
	fmt.Printf("hypothesis: %s\n", rep.Applied)
	if rep.TraceMatch != nil {
		if rep.TraceMatch.Err != nil {
			fmt.Fprintf(os.Stderr, "recorded trace does not match the factual replay — wrong checkpoint, seed or fault flags?\n  %v\n", rep.TraceMatch.Err)
			os.Exit(2)
		}
		fmt.Printf("factual replay matches the recorded trace (%d events checked)\n", rep.TraceMatch.Compared)
	}
	fmt.Printf("replayed to round %d: %d factual / %d counterfactual events\n\n",
		*rounds, rep.FactualEvents, rep.CounterEvents)

	if rep.Div == nil {
		fmt.Println("no divergence: the counterfactual is observationally identical to the recorded run")
		fmt.Println("(the hypothesis makes no testable difference over this horizon)")
		return
	}
	fmt.Printf("first divergence: %s\n", rep.Div.Slot())
	fmt.Printf("  factual:        %s\n", renderEvent(rep.Div.Factual))
	fmt.Printf("  counterfactual: %s\n", renderEvent(rep.Div.Counter))
	if rep.Div.FRU != "" {
		fmt.Printf("diverging FRU: %s\n", rep.Div.FRU)
	}
	fmt.Printf("\nfinal verdicts (* = differs):\n%s", rep.VerdictDiff())
}

func parseKind(name string, fail func(string, ...any)) scenario.FaultKind {
	if name == "" {
		return -1
	}
	if k, ok := scenario.ParseKind(name); ok {
		return k
	}
	fail("unknown fault kind %q; known kinds: %s", name, strings.Join(pack.CampaignKinds, " "))
	return -1
}

// pickCheckpoint returns the ckpt_<rounds>.bin in dir with the largest
// round count whose simulated time (1 ms per round) is at or before the
// hypothesis instant; when none predates it, the earliest available.
func pickCheckpoint(dir string, hypMS int64) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var roundsSeen []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt_") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt_"), ".bin"), 10, 64)
		if err != nil {
			continue
		}
		roundsSeen = append(roundsSeen, n)
	}
	if len(roundsSeen) == 0 {
		return "", fmt.Errorf("no ckpt_<rounds>.bin files in %s (record with decos-sim -checkpoint-every)", dir)
	}
	sort.Slice(roundsSeen, func(i, j int) bool { return roundsSeen[i] < roundsSeen[j] })
	best := roundsSeen[0]
	for _, r := range roundsSeen {
		if r <= hypMS { // 1 round = 1 ms in the Fig. 10 schedule
			best = r
		}
	}
	return filepath.Join(dir, fmt.Sprintf("ckpt_%d.bin", best)), nil
}

func renderEvent(e *trace.Event) string {
	if e == nil {
		return "(stream ended)"
	}
	switch e.Kind {
	case "frame":
		return fmt.Sprintf("frame sender=%d slot=%d round=%d status=%s",
			*e.Sender, *e.Slot, *e.Round, e.Status)
	case "symptom":
		return fmt.Sprintf("symptom %s subject=%s observer=%d count=%d",
			e.Symptom, e.Subject, *e.Observer, e.Count)
	case "verdict":
		return fmt.Sprintf("verdict %s class=%s pattern=%s action=%s conf=%.2f",
			e.Subject, e.Class, e.Pattern, e.Action, e.Conf)
	}
	return fmt.Sprintf("%s t=%d", e.Kind, e.T)
}
