package whatif

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// engineCheckpointEvery mirrors decos-sim's -checkpoint-every sink,
// keeping the encodings in memory keyed by completed-round count.
func engineCheckpointEvery(rec *recording, every int64) engine.Option {
	return engine.WithCheckpointSink(func(round int64, data []byte) error {
		rec.ckpts[round+1] = bytes.Clone(data)
		return nil
	}, every)
}

const (
	testSeed   = 20050404
	testRounds = 400
)

// recording is one decos-sim-shaped factual run: periodic checkpoints
// plus a trace, exactly as `decos-sim -checkpoint-every 50 -trace f`
// would produce them.
type recording struct {
	ckpts  map[int64][]byte // completed rounds -> encoded checkpoint
	events []trace.Event
	binary []trace.Event // the same trace, read from its binary encoding
	ledger []string      // activation culprits, for expectations
}

func record(t *testing.T, plan []scenario.InjectPlan, extra ...engine.Option) *recording {
	t.Helper()
	rec := &recording{ckpts: map[int64][]byte{}}
	var buf bytes.Buffer
	sys := scenario.Fig10(testSeed, diagnosis.Options{}, plan,
		append([]engine.Option{engineCheckpointEvery(rec, 50)}, extra...)...)
	// decos-sim attaches the trace outside the engine; mirror that so the
	// checkpoints carry no trace attachment.
	trace.AttachSink(sys.Cluster, sys.Diag, sys.Injector,
		trace.NewNDJSONSink(&buf), trace.Options{TrustEveryEpochs: 5})
	for _, a := range sys.Injector.Ledger() {
		rec.ledger = append(rec.ledger, a.Culprit.String())
	}
	sys.Cluster.RunRounds(context.Background(), testRounds)
	if sys.CkptErr != nil {
		t.Fatalf("checkpoint sink: %v", sys.CkptErr)
	}
	rd, _ := trace.OpenReader(bytes.NewReader(buf.Bytes()))
	var bin bytes.Buffer
	_, unencodable, err := trace.Transcode(rd, trace.NewBinarySink(&bin))
	if corrupt := rd.Corrupt() + unencodable; err != nil || corrupt != 0 {
		t.Fatalf("binary transcode: corrupt=%d err=%v", corrupt, err)
	}
	if rec.events, err = ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("reading recorded trace: %v", err)
	}
	if rec.binary, err = ReadTrace(bytes.NewReader(bin.Bytes())); err != nil {
		t.Fatalf("reading binary trace: %v", err)
	}
	return rec
}

func verdictJSON(t *testing.T, v []diagnosis.Verdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWhatifHypotheses is the end-to-end counterfactual replay contract:
// for each hypothesis class — fault removed, fault injected, wrong FRU —
// the diagnoser restores from a decos-sim checkpoint, cross-checks the
// factual replica against the recorded trace, and reports a first
// divergent slot with a diverging FRU.
func TestWhatifHypotheses(t *testing.T) {
	if testing.Short() {
		t.Skip("six 400-round replays in -short mode")
	}
	faultPlan := []scenario.InjectPlan{{
		Kind: scenario.KindConnectorTx,
		At:   100 * sim.Time(sim.Millisecond),
	}}
	faulty := record(t, faultPlan)
	healthy := record(t, nil)
	if len(faulty.ledger) != 1 {
		t.Fatalf("faulty recording has %d activations, want 1", len(faulty.ledger))
	}

	base := func(plan []scenario.InjectPlan, rec *recording, ckptRound int64) Config {
		data, ok := rec.ckpts[ckptRound]
		if !ok {
			t.Fatalf("no checkpoint at round %d (have %v)", ckptRound, len(rec.ckpts))
		}
		return Config{
			Seed:       testSeed,
			Opts:       diagnosis.Options{},
			Plan:       plan,
			Rounds:     testRounds,
			Checkpoint: data,
			Recorded:   rec.events,
		}
	}
	check := func(t *testing.T, rep *Report, err error, wantCkptRound int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.RestoredRound != wantCkptRound {
			t.Errorf("restored at round %d, want %d", rep.RestoredRound, wantCkptRound)
		}
		if rep.TraceMatch == nil {
			t.Fatal("no trace cross-check ran")
		}
		if rep.TraceMatch.Err != nil {
			t.Fatalf("factual replica does not match the recording: %v", rep.TraceMatch.Err)
		}
		if rep.Div == nil {
			t.Fatal("no divergence reported")
		}
		if rep.Div.FRU == "" {
			t.Error("divergence has no FRU attribution")
		}
		e := rep.Div.Factual
		if e == nil {
			e = rep.Div.Counter
		}
		if e.T <= rep.RestoredAt.Micros() {
			t.Errorf("divergence at t=%dµs not after restore point %v", e.T, rep.RestoredAt)
		}
		if rep.Div.Slot() == "" {
			t.Error("empty divergence slot rendering")
		}
	}

	t.Run("remove", func(t *testing.T) {
		// Restore before the fault activates (round 50 < 100 ms) and
		// remove it: the counterfactual is the healthy continuation.
		cfg := base(faultPlan, faulty, 50)
		cfg.Hyp = Hypothesis{Kind: Remove, Target: 0}
		rep, err := Run(cfg)
		check(t, rep, err, 50)
		if !strings.Contains(rep.Applied, "removed activation #0") {
			t.Errorf("Applied = %q", rep.Applied)
		}
		if rep.Div.FRU != faulty.ledger[0] {
			t.Errorf("diverging FRU %s, want the removed fault's culprit %s",
				rep.Div.FRU, faulty.ledger[0])
		}
		if verdictJSON(t, rep.FactualVerdicts) == verdictJSON(t, rep.CounterVerdicts) {
			t.Error("final verdicts identical despite removing an active fault")
		}
	})

	t.Run("binary-recording", func(t *testing.T) {
		// decos-sim -trace-format binary records the same events; every
		// frame and symptom must keep its own round, slot and observer.
		cfg := base(faultPlan, faulty, 50)
		cfg.Recorded = faulty.binary
		cfg.Hyp = Hypothesis{Kind: Remove, Target: 0}
		rep, err := Run(cfg)
		check(t, rep, err, 50)
	})

	t.Run("inject", func(t *testing.T) {
		// Healthy recording; hypothesis adds a permanent fail-silent
		// fault at 150 ms, restoring from the round-100 checkpoint.
		cfg := base(nil, healthy, 100)
		cfg.Hyp = Hypothesis{Kind: Inject, Fault: scenario.KindPermanent,
			At: 150 * sim.Time(sim.Millisecond)}
		rep, err := Run(cfg)
		check(t, rep, err, 100)
		if !strings.Contains(rep.Applied, "injected permanent") {
			t.Errorf("Applied = %q", rep.Applied)
		}
		if len(rep.CounterVerdicts) == 0 {
			t.Error("no counterfactual verdicts despite an injected permanent fault")
		}
	})

	t.Run("wrong-fru", func(t *testing.T) {
		// Move the recorded connector fault to the culprit's neighbour:
		// the first divergent frame must implicate one of the two.
		cfg := base(faultPlan, faulty, 50)
		cfg.Hyp = Hypothesis{Kind: WrongFRU, Target: 0, Fault: scenario.KindConnectorTx, Comp: -1}
		rep, err := Run(cfg)
		check(t, rep, err, 50)
		if !strings.Contains(rep.Applied, "moved activation #0") {
			t.Errorf("Applied = %q", rep.Applied)
		}
		if verdictJSON(t, rep.FactualVerdicts) == verdictJSON(t, rep.CounterVerdicts) {
			t.Error("final verdicts identical despite moving the fault to another FRU")
		}
		if diff := rep.VerdictDiff(); !strings.Contains(diff, "*") {
			t.Errorf("verdict diff marks no differing row:\n%s", diff)
		}
	})

	t.Run("no-divergence", func(t *testing.T) {
		// An injection armed beyond the horizon never manifests: the
		// counterfactual must be observationally identical.
		cfg := base(nil, healthy, 100)
		cfg.Hyp = Hypothesis{Kind: Inject, Fault: scenario.KindPermanent,
			At: 10 * testRounds * sim.Time(sim.Millisecond)}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.Div != nil {
			t.Errorf("unexpected divergence: %s (factual %s, counter %s)",
				rep.Div.Slot(), verdictJSON(t, rep.FactualVerdicts), verdictJSON(t, rep.CounterVerdicts))
		}
	})

	t.Run("trace-mismatch", func(t *testing.T) {
		// Cross-checking the faulty run's replay against the healthy
		// recording must be detected.
		cfg := base(faultPlan, faulty, 50)
		cfg.Recorded = healthy.events
		cfg.Hyp = Hypothesis{Kind: Remove, Target: 0}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.TraceMatch == nil || rep.TraceMatch.Err == nil {
			t.Error("mismatched recording not detected")
		}
	})
}

// TestWhatifErrors covers refusals: unknown activation targets,
// checkpoints past the horizon, garbage checkpoints, wrong-fru
// components outside the cluster and unknown classifiers.
func TestWhatifErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("400-round recording in -short mode")
	}
	rec := record(t, nil)
	cfg := Config{
		Seed: testSeed, Opts: diagnosis.Options{}, Rounds: testRounds,
		Checkpoint: rec.ckpts[50],
		Hyp:        Hypothesis{Kind: Remove, Target: 7},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("removing a nonexistent activation should fail")
	}
	cfg.Hyp = Hypothesis{Kind: Remove, Target: 0}
	cfg.Rounds = 10 // checkpoint at round 50 is past this horizon
	if _, err := Run(cfg); err == nil {
		t.Error("checkpoint past the horizon should fail")
	}
	cfg.Rounds = testRounds
	cfg.Checkpoint = []byte("garbage")
	if _, err := Run(cfg); err == nil {
		t.Error("garbage checkpoint should fail")
	}

	// A wrong-fru component outside the cluster is refused with an
	// addressed error; -1 alone means "the culprit's neighbour".
	plan := []scenario.InjectPlan{{Kind: scenario.KindConnectorTx, At: 100 * sim.Time(sim.Millisecond)}}
	faulty := record(t, plan)
	cfg = Config{Seed: testSeed, Opts: diagnosis.Options{}, Plan: plan, Rounds: testRounds, Checkpoint: faulty.ckpts[50]}
	for _, comp := range []int{4, -5} {
		cfg.Hyp = Hypothesis{Kind: WrongFRU, Target: 0, Fault: scenario.KindConnectorTx, Comp: comp}
		_, err := Run(cfg)
		if want := fmt.Sprintf("whatif: wrong-fru component %d outside [0, 4)", comp); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("wrong-fru to component %d: error %v, want %q", comp, err, want)
		}
	}

	// A classifier name that selects no stage is refused, not replayed
	// under the DECOS stage.
	cfg.Hyp = Hypothesis{Kind: Remove, Target: 0}
	cfg.Classifier = "bogus"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), `whatif: unknown classifier "bogus"`) {
		t.Errorf("classifier %q: error %v", cfg.Classifier, err)
	}
}

// TestWhatifBayesPosteriorDiff replays a recording made under the
// Bayesian classification stage: the checkpoint carries the belief
// state, the factual replica must still reproduce the recorded trace
// bit-identically, and the verdict diff renders the posterior over
// fault classes on both sides of every indicted FRU.
func TestWhatifBayesPosteriorDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("400-round bayes replays in -short mode")
	}
	faultPlan := []scenario.InjectPlan{{
		Kind: scenario.KindConnectorTx,
		At:   100 * sim.Time(sim.Millisecond),
	}}
	rec := record(t, faultPlan, engine.WithClassifier(bayes.New()))

	cfg := Config{
		Seed:       testSeed,
		Opts:       diagnosis.Options{},
		Plan:       faultPlan,
		Rounds:     testRounds,
		Classifier: "bayes",
		Checkpoint: rec.ckpts[150],
		Recorded:   rec.events,
		Hyp:        Hypothesis{Kind: Remove, Target: 0},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TraceMatch == nil || rep.TraceMatch.Err != nil {
		t.Fatalf("bayes factual replica does not match its recording: %v", rep.TraceMatch)
	}
	if rep.Div == nil {
		t.Fatal("no divergence after removing the active fault")
	}
	if len(rep.FactualVerdicts) == 0 {
		t.Fatal("no factual verdicts — the Bayesian stage never indicted the connector")
	}
	if rep.FactualRanked == nil {
		t.Fatal("no ranked posterior captured despite a Ranker classifier")
	}
	diff := rep.VerdictDiff()
	if !strings.Contains(diff, "posterior") {
		t.Errorf("verdict diff renders no posterior rows:\n%s", diff)
	}
}
