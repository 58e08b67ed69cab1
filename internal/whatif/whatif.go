// Package whatif implements counterfactual replay diagnosis: restore a
// recorded run from a deterministic engine checkpoint twice, apply a
// fault hypothesis to one of the two replicas, run both to the horizon
// and report where — first divergent slot, diverging FRU — and how —
// side-by-side verdict diff — the counterfactual departs from the
// factual run.
//
// This is the maintenance engineer's "would the symptoms go away if this
// FRU were replaced?" question (the paper's Section V-B off-line
// analysis), answered by simulation instead of by swapping hardware: the
// byte-identical restore contract of the engine checkpoints makes the
// factual replica reproduce the recorded run exactly, so every
// difference between the replicas is attributable to the hypothesis
// alone.
package whatif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/tt"
)

// HypKind enumerates the hypothesis classes.
type HypKind int

const (
	// Remove deactivates a recorded fault activation at the restore
	// point: "what if this fault were not present from here on?"
	Remove HypKind = iota
	// Inject adds a fault that the recorded run did not have: "would
	// this candidate fault explain the observed symptoms?"
	Inject
	// WrongFRU moves a recorded fault to a different component: the
	// misdiagnosis probe — "would the evidence distinguish the suspected
	// FRU from its neighbour?"
	WrongFRU
)

func (k HypKind) String() string {
	switch k {
	case Remove:
		return "remove"
	case Inject:
		return "inject"
	case WrongFRU:
		return "wrong-fru"
	}
	return fmt.Sprintf("HypKind(%d)", int(k))
}

// ParseHypKind resolves a hypothesis class name.
func ParseHypKind(s string) (HypKind, error) {
	switch s {
	case "remove":
		return Remove, nil
	case "inject":
		return Inject, nil
	case "wrong-fru":
		return WrongFRU, nil
	}
	return 0, fmt.Errorf("whatif: unknown hypothesis %q (remove, inject or wrong-fru)", s)
}

// Hypothesis is one counterfactual edit applied to the restored run.
type Hypothesis struct {
	Kind HypKind
	// Target is the injector-ledger activation ID the hypothesis acts on
	// (Remove, WrongFRU).
	Target int
	// Fault is the kind to add (Inject) or re-target (WrongFRU — usually
	// the factual fault's own kind).
	Fault scenario.FaultKind
	// At is the injection instant (Inject); clamped to the restore point
	// when the checkpoint is later.
	At sim.Time
	// Comp pins the WrongFRU target component; -1 picks the factual
	// culprit's neighbour ((culprit+1) mod 3).
	Comp int
}

// Config describes one counterfactual replay.
type Config struct {
	// Seed, Opts and Plan must reproduce the recorded run's build exactly
	// — the checkpoint's manifest reconstruction depends on them (and the
	// restore refuses mismatched seeds or topologies).
	Seed uint64
	Opts diagnosis.Options
	Plan []scenario.InjectPlan
	// Rounds is the replay horizon (TDMA rounds from t=0).
	Rounds int64
	// Classifier names the classification stage both replicas run
	// ("", "decos", "obd" or "bayes" — pack.Classifiers). It must match
	// the recorded run's stage: a checkpoint written under the Bayesian
	// stage carries its belief state in the "cls" section, and restoring
	// it under a different stage (or vice versa) forfeits the
	// byte-identical replay contract the divergence report rests on.
	Classifier string
	// Checkpoint is the encoded engine checkpoint to restore from.
	Checkpoint []byte
	Hyp        Hypothesis
	// Recorded optionally holds the recorded run's trace events; when
	// present the factual replica is cross-checked against them (failed
	// frames, symptoms and verdicts after the restore point must match).
	Recorded []trace.Event
}

// Divergence locates the first observable difference between the
// replicas' event streams (frames of every slot, symptoms, verdicts).
type Divergence struct {
	// Index is the position in the replay event streams.
	Index int
	// Factual and Counter are the events at Index; one is nil when a
	// stream ended early.
	Factual, Counter *trace.Event
	// FRU names the diverging field-replaceable unit: the sender's
	// hardware FRU for a frame divergence, the subject for symptom or
	// verdict divergences.
	FRU string
}

// Slot renders the divergence instant ("round 312 slot 2 (t=312510µs)"
// or just the timestamp for non-frame events).
func (d *Divergence) Slot() string {
	e := d.Factual
	if e == nil {
		e = d.Counter
	}
	if e.Kind == "frame" && e.Round != nil && e.Slot != nil {
		return fmt.Sprintf("round %d slot %d (t=%dµs)", *e.Round, *e.Slot, e.T)
	}
	return fmt.Sprintf("t=%dµs", e.T)
}

// TraceCheck is the outcome of cross-checking the factual replica
// against the recorded trace.
type TraceCheck struct {
	// Compared counts the recorded post-restore events checked.
	Compared int
	// Err describes the first mismatch; nil means the replica reproduced
	// the recording exactly.
	Err error
}

// Report is the result of one counterfactual replay.
type Report struct {
	// RestoredRound and RestoredAt locate the checkpoint (completed
	// rounds, simulated time).
	RestoredRound int64
	RestoredAt    sim.Time
	// Applied describes the concrete hypothesis application (which
	// activation was removed, what was injected where).
	Applied string
	// Div is nil when the counterfactual is observationally identical to
	// the factual run through the horizon.
	Div *Divergence
	// FactualEvents and CounterEvents count the captured replay events.
	FactualEvents, CounterEvents int
	// FactualVerdicts and CounterVerdicts are the final diagnostic
	// verdicts of each replica.
	FactualVerdicts, CounterVerdicts []diagnosis.Verdict
	// FactualRanked and CounterRanked carry the full ranked belief per
	// indicted FRU when the active classification stage maintains one
	// (diagnosis.Ranker — the Bayesian stage); nil otherwise. The verdict
	// diff renders them so the engineer sees how far the counterfactual
	// moved the posterior, not just whether the MAP class flipped.
	FactualRanked, CounterRanked map[string][]diagnosis.RankedVerdict
	// TraceMatch is nil when no recording was supplied.
	TraceMatch *TraceCheck
}

// capture is an in-memory trace sink retaining every event.
type capture struct{ events []trace.Event }

func (c *capture) Record(e *trace.Event) error { c.events = append(c.events, *e); return nil }
func (c *capture) Close() error                { return nil }

// replica restores one engine from the checkpoint and instruments it
// with a full-fidelity capture (every frame, every symptom, every
// verdict — trust sampling and ledger echo off, so the stream is a pure
// function of cluster behaviour).
func (cfg *Config) replica() (*scenario.System, *capture, error) {
	sys, err := scenario.Fig10Restored(cfg.Checkpoint, cfg.Seed, cfg.Opts, cfg.Plan,
		pack.ClassifierOptions(cfg.Classifier)...)
	if err != nil {
		return nil, nil, err
	}
	cap := &capture{}
	trace.AttachSink(sys.Cluster, sys.Diag, nil, cap, trace.Options{AllFrames: true})
	return sys, cap, nil
}

// apply edits the counterfactual replica per the hypothesis and returns
// a description of what was done.
func (cfg *Config) apply(sys *scenario.System) (string, error) {
	h := cfg.Hyp
	now := sys.Cluster.Sched.Now()
	horizon := sim.Time(cfg.Rounds * sys.Cluster.Cfg.RoundDuration().Micros())
	at := h.At
	if at < now {
		at = now
	}
	find := func(id int) (*faults.Activation, error) {
		for _, a := range sys.Injector.Ledger() {
			if a.ID == id {
				return a, nil
			}
		}
		return nil, fmt.Errorf("whatif: no activation #%d in the restored ledger (%d entries)",
			id, len(sys.Injector.Ledger()))
	}
	switch h.Kind {
	case Remove:
		a, err := find(h.Target)
		if err != nil {
			return "", err
		}
		a.Deactivate()
		return fmt.Sprintf("removed activation #%d (%s: %s)", a.ID, a.Class, a.Detail), nil
	case Inject:
		a := sys.InjectWith(sys.Injector, h.Fault, at, horizon)
		return fmt.Sprintf("injected %s at %v: %s", h.Fault, at, a.Detail), nil
	case WrongFRU:
		a, err := find(h.Target)
		if err != nil {
			return "", err
		}
		if !a.Culprit.IsHardware() || a.Culprit.Component < 0 {
			return "", fmt.Errorf("whatif: wrong-fru needs a hardware culprit; #%d has %s",
				a.ID, a.Culprit)
		}
		comp := h.Comp
		if comp < 0 {
			comp = (a.Culprit.Component + 1) % 3
		}
		a.Deactivate()
		b := sys.InjectAt(sys.Injector, h.Fault, tt.NodeID(comp), at, horizon)
		return fmt.Sprintf("moved activation #%d (%s) from %s to %s: %s",
			a.ID, h.Fault, a.Culprit, core.HardwareFRU(comp), b.Detail), nil
	}
	return "", fmt.Errorf("whatif: unknown hypothesis kind %d", int(h.Kind))
}

// eventJSON canonicalizes an event for comparison.
func eventJSON(e *trace.Event) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err) // trace.Event is always marshalable
	}
	return b
}

// diverge finds the first difference between the replicas' streams.
func diverge(fact, counter []trace.Event) *Divergence {
	n := len(fact)
	if len(counter) < n {
		n = len(counter)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(eventJSON(&fact[i]), eventJSON(&counter[i])) {
			return describe(i, &fact[i], &counter[i])
		}
	}
	if len(fact) != len(counter) {
		var f, c *trace.Event
		if n < len(fact) {
			f = &fact[n]
		}
		if n < len(counter) {
			c = &counter[n]
		}
		return describe(n, f, c)
	}
	return nil
}

func describe(i int, f, c *trace.Event) *Divergence {
	d := &Divergence{Index: i, Factual: f, Counter: c}
	e := f
	if e == nil {
		e = c
	}
	switch {
	case e.Kind == "frame" && e.Sender != nil:
		d.FRU = core.HardwareFRU(*e.Sender).String()
	case e.Subject != "":
		d.FRU = e.Subject
	}
	return d
}

// crossCheck verifies the factual replica against the recorded trace:
// every failed frame, symptom and verdict the recording holds after the
// restore point must appear identically in the replay. A mismatch means
// the checkpoint, seed or fault plan does not belong to the recording.
func crossCheck(recorded, replay []trace.Event, after sim.Time) *TraceCheck {
	sel := func(events []trace.Event) []trace.Event {
		var out []trace.Event
		for i := range events {
			e := &events[i]
			if e.T <= after.Micros() {
				continue
			}
			switch e.Kind {
			case "frame":
				if e.Status == tt.FrameOK.String() {
					continue // recordings may or may not carry OK frames
				}
			case "symptom", "verdict":
			default:
				continue // trust samples, injections: cadence-dependent
			}
			out = append(out, *e)
		}
		return out
	}
	want, got := sel(recorded), sel(replay)
	chk := &TraceCheck{Compared: len(want)}
	for i := range want {
		if i >= len(got) {
			chk.Err = fmt.Errorf("replay ends after %d events; recording has %d (first missing: %s)",
				len(got), len(want), eventJSON(&want[i]))
			return chk
		}
		if !bytes.Equal(eventJSON(&want[i]), eventJSON(&got[i])) {
			chk.Err = fmt.Errorf("event %d differs:\n  recorded: %s\n  replayed: %s",
				i, eventJSON(&want[i]), eventJSON(&got[i]))
			return chk
		}
	}
	if len(got) > len(want) {
		chk.Err = fmt.Errorf("replay has %d extra events (first: %s)",
			len(got)-len(want), eventJSON(&got[len(want)]))
	}
	return chk
}

// Run executes the counterfactual replay described by cfg.
func Run(cfg Config) (*Report, error) {
	fact, factCap, err := cfg.replica()
	if err != nil {
		return nil, err
	}
	counter, counterCap, err := cfg.replica()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		RestoredRound: fact.Engine.StateVersion(),
		RestoredAt:    fact.Cluster.Sched.Now(),
	}
	if rep.RestoredRound > cfg.Rounds {
		return nil, fmt.Errorf("whatif: checkpoint is at round %d, past the %d-round horizon",
			rep.RestoredRound, cfg.Rounds)
	}
	if rep.Applied, err = cfg.apply(counter); err != nil {
		return nil, err
	}

	fact.Cluster.RunToRound(cfg.Rounds)
	counter.Cluster.RunToRound(cfg.Rounds)

	rep.FactualEvents = len(factCap.events)
	rep.CounterEvents = len(counterCap.events)
	rep.Div = diverge(factCap.events, counterCap.events)
	rep.FactualVerdicts = fact.Diag.Assessor.CurrentAll()
	rep.CounterVerdicts = counter.Diag.Assessor.CurrentAll()
	rep.FactualRanked = rankedOf(fact, rep.FactualVerdicts)
	rep.CounterRanked = rankedOf(counter, rep.CounterVerdicts)
	if cfg.Recorded != nil {
		rep.TraceMatch = crossCheck(cfg.Recorded, factCap.events, rep.RestoredAt)
	}
	return rep, nil
}

// rankedOf snapshots the classifier's ranked belief for every indicted
// FRU when the stage implements diagnosis.Ranker; nil otherwise. The
// ranked slices are copied — the classifier owns its return value only
// until the next call.
func rankedOf(sys *scenario.System, verdicts []diagnosis.Verdict) map[string][]diagnosis.RankedVerdict {
	ranker, ok := sys.Diag.Assessor.Classifier().(diagnosis.Ranker)
	if !ok {
		return nil
	}
	out := map[string][]diagnosis.RankedVerdict{}
	for i := range verdicts {
		v := &verdicts[i]
		if r := ranker.Ranked(v.Subject); len(r) > 0 {
			out[v.FRU.String()] = append([]diagnosis.RankedVerdict(nil), r...)
		}
	}
	return out
}

// VerdictDiff renders the side-by-side final-verdict comparison: one row
// per FRU either replica indicted, factual on the left, counterfactual
// on the right, differing rows marked. When the classification stage
// exposes a ranked belief (diagnosis.Ranker), each row is followed by
// the posterior over fault classes on both sides.
func (r *Report) VerdictDiff() string {
	type side struct{ f, c string }
	rows := map[string]*side{}
	var order []string
	row := func(fru string) *side {
		s, ok := rows[fru]
		if !ok {
			s = &side{}
			rows[fru] = s
			order = append(order, fru)
		}
		return s
	}
	render := func(v *diagnosis.Verdict) string {
		return fmt.Sprintf("%s %s action=%s conf=%.2f", v.Class, v.Pattern, v.Action, v.Confidence)
	}
	for i := range r.FactualVerdicts {
		v := &r.FactualVerdicts[i]
		row(v.FRU.String()).f = render(v)
	}
	for i := range r.CounterVerdicts {
		v := &r.CounterVerdicts[i]
		row(v.FRU.String()).c = render(v)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  %-22s %-45s | %s\n", "FRU", "factual", "counterfactual")
	for _, fru := range order {
		s := rows[fru]
		f, c := s.f, s.c
		mark := " "
		if f != c {
			mark = "*"
		}
		if f == "" {
			f = "-"
		}
		if c == "" {
			c = "-"
		}
		fmt.Fprintf(&buf, "%s %-22s %-45s | %s\n", mark, fru, f, c)
		rf, rc := renderRanked(r.FactualRanked[fru]), renderRanked(r.CounterRanked[fru])
		if rf != "" || rc != "" {
			if rf == "" {
				rf = "-"
			}
			if rc == "" {
				rc = "-"
			}
			fmt.Fprintf(&buf, "  %-22s %-45s | %s\n", "  posterior", rf, rc)
		}
	}
	if len(order) == 0 {
		buf.WriteString("  (no verdicts in either replica)\n")
	}
	return buf.String()
}

// renderRanked formats a ranked belief as "class .97 > class .02 > …",
// dropping classes below one posterior percent to keep the row readable.
func renderRanked(ranked []diagnosis.RankedVerdict) string {
	var parts []string
	for _, rv := range ranked {
		if rv.Confidence < 0.01 && len(parts) > 0 {
			break // ranked is sorted descending; the rest is noise
		}
		parts = append(parts, fmt.Sprintf("%s %.2f", rv.Class, rv.Confidence))
	}
	return strings.Join(parts, " > ")
}
