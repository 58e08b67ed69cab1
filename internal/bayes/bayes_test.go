package bayes

import (
	"bytes"
	"fmt"
	"testing"

	"decos/internal/ckpt"
	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/sim"
	"decos/internal/tt"
)

// The unit tests drive the classifier against a synthetic EvalContext —
// four components far enough apart that spatial correlation never fires
// — so each belief-stage contract (abstention, indictment, framing,
// recovery, checkpointing) is exercised without a running cluster. The
// end-to-end contracts (determinism inside a Fig. 10 engine, checkpoint
// restore mid-run) live in internal/scenario/bayes_test.go.

// rig owns one classifier and the external evidence state an assessor
// would hand it each epoch.
type rig struct {
	c   *Classifier
	ctx *diagnosis.EvalContext
	g   int64
}

func newRig(c *Classifier) *rig {
	cl := component.NewCluster(tt.UniformSchedule(4, 250*sim.Microsecond, 32), 1)
	for i := 0; i < 4; i++ {
		// 10 apart: well beyond diagnosis.ProximityRadius (3).
		cl.AddComponent(tt.NodeID(i), fmt.Sprintf("c%d", i), float64(10*i), 0)
	}
	opts := diagnosis.DefaultOptions()
	reg := diagnosis.NewRegistry(cl)
	return &rig{
		c: c,
		ctx: &diagnosis.EvalContext{
			Hist:      diagnosis.NewHistory(opts.RetainGranules, reg.Len()),
			Reg:       reg,
			Alpha:     diagnosis.NewAlphaCount(opts.AlphaK, opts.AlphaThreshold),
			SW:        diagnosis.NewAlphaCount(opts.AlphaK, opts.AlphaThreshold),
			Window:    opts.WindowGranules,
			Opts:      opts,
			Explained: make(map[diagnosis.FRUIndex]bool),
			Decided:   make(map[diagnosis.FRUIndex]core.FaultClass),
		},
	}
}

// omit records one omission symptom about subject as seen by observer.
func (r *rig) omit(subject, observer diagnosis.FRUIndex, g int64) {
	r.ctx.Hist.Add(diagnosis.Symptom{
		Kind: diagnosis.SymOmission, Observer: observer, Subject: subject,
		Granule: g, At: sim.Time(g), Count: 1,
	})
}

// epoch advances one assessment period, calling evidence for every
// granule of the epoch, and returns the epoch's findings.
func (r *rig) epoch(evidence func(g int64)) []diagnosis.Finding {
	from := r.g + 1
	r.g += diagnosis.EpochRounds
	if evidence != nil {
		for g := from; g <= r.g; g++ {
			evidence(g)
		}
	}
	r.ctx.Granule = r.g
	for k := range r.ctx.Decided {
		delete(r.ctx.Decided, k)
	}
	return r.c.Classify(r.ctx)
}

// TestQuietClusterEmitsNothing: with no symptoms at all the stage stays
// at the prior — no findings, no abstentions (abstaining requires
// symptomatic evidence), and the ranked view leads with healthy.
func TestQuietClusterEmitsNothing(t *testing.T) {
	r := newRig(New())
	for i := 0; i < 12; i++ {
		if f := r.epoch(nil); len(f) != 0 {
			t.Fatalf("epoch %d: findings on a quiet cluster: %+v", i, f)
		}
	}
	if n := r.c.epochs; n != 12 {
		t.Errorf("epochs = %d, want 12", n)
	}
	if n := r.c.abstained; n != 0 {
		t.Errorf("abstentions = %d on a quiet cluster, want 0", n)
	}
	ranked := r.c.Ranked(0)
	if len(ranked) == 0 || ranked[0].Class != core.ClassUnknown {
		t.Fatalf("quiet Ranked(0) does not lead with healthy: %+v", ranked)
	}
	if ranked[0].Confidence < 0.8 {
		t.Errorf("healthy confidence %.3f after quiet epochs, want >= 0.8", ranked[0].Confidence)
	}
}

// TestOneShotGlitchAbstains: a single stray omission must not indict —
// the prior plus the abstention bar absorb one epoch of weak evidence,
// and forgetting restores the healthy belief afterwards.
func TestOneShotGlitchAbstains(t *testing.T) {
	r := newRig(New())
	f := r.epoch(func(g int64) {
		if g == 10 {
			r.omit(0, 1, g)
		}
	})
	if len(f) != 0 {
		t.Fatalf("one stray omission produced findings: %+v", f)
	}
	for i := 0; i < 20; i++ {
		if f := r.epoch(nil); len(f) != 0 {
			t.Fatalf("quiet epoch %d after the glitch produced findings: %+v", i, f)
		}
	}
	// Forgetting converges on the prior, where healthy holds 0.85.
	if h := healthy(r.c, 0); h < 0.8 {
		t.Errorf("healthy posterior %.3f after the glitch decayed, want >= 0.8", h)
	}
}

// TestPermanentLossIndictment: near-continuous omissions seen by two
// observers must converge on an internal-permanent verdict with
// calibrated confidence, and the ranked posterior must agree with the
// emitted finding.
func TestPermanentLossIndictment(t *testing.T) {
	r := newRig(New())
	var last []diagnosis.Finding
	for i := 0; i < 10; i++ {
		last = r.epoch(func(g int64) {
			r.omit(0, 1, g)
			r.omit(0, 2, g)
		})
	}
	if len(last) != 1 || last[0].Subject != 0 {
		t.Fatalf("final findings = %+v, want exactly one about FRU 0", last)
	}
	v := last[0]
	if v.Class != core.ComponentInternal || v.Pattern != "bayes-permanent" {
		t.Errorf("verdict %s/%s, want component-internal/bayes-permanent", v.Class, v.Pattern)
	}
	if v.Persistence != core.Permanent {
		t.Errorf("persistence %v, want permanent", v.Persistence)
	}
	if v.Confidence < minConfidence || v.Confidence > 1 {
		t.Errorf("confidence %.3f outside [%.2f, 1]", v.Confidence, minConfidence)
	}
	if cl := r.ctx.Decided[0]; cl != core.ComponentInternal {
		t.Errorf("Decided[0] = %v, want component-internal", cl)
	}

	ranked := r.c.Ranked(0)
	if len(ranked) != 4 { // healthy + the three hardware classes
		t.Fatalf("Ranked(0) has %d entries, want 4: %+v", len(ranked), ranked)
	}
	if ranked[0].Class != core.ComponentInternal {
		t.Errorf("top ranked class %v, want component-internal", ranked[0].Class)
	}
	sum := 0.0
	for i, rv := range ranked {
		sum += rv.Confidence
		if i > 0 && rv.Confidence > ranked[i-1].Confidence {
			t.Errorf("ranked verdicts not in descending confidence: %+v", ranked)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("ranked confidences sum to %.4f, want 1", sum)
	}
	if ranked[0].Confidence != v.Confidence {
		t.Errorf("ranked top %.4f != finding confidence %.4f", ranked[0].Confidence, v.Confidence)
	}
}

// TestRecoveryDowngrade: when the evidence behind a standing internal
// verdict stops recurring, forgetting drains the posterior back to a
// healthy MAP and the stage downgrades the verdict to an external
// transient — no stale removal recommendation survives a subsided
// stress.
func TestRecoveryDowngrade(t *testing.T) {
	r := newRig(New())
	for i := 0; i < 10; i++ {
		r.epoch(func(g int64) {
			r.omit(0, 1, g)
			r.omit(0, 2, g)
		})
	}

	recovered := false
	for i := 0; i < 80 && !recovered; i++ {
		for _, f := range r.epoch(nil) {
			if f.Subject != 0 {
				continue
			}
			if f.Pattern == "bayes-recovered" {
				if f.Class != core.ComponentExternal || f.Persistence != core.Transient {
					t.Fatalf("recovery downgrade is %s/%v, want component-external/transient", f.Class, f.Persistence)
				}
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("no bayes-recovered downgrade within 80 quiet epochs")
	}
	// The downgrade fires once; the belief stays healthy afterwards.
	for i := 0; i < 10; i++ {
		if f := r.epoch(nil); len(f) != 0 {
			t.Fatalf("findings after the recovery downgrade: %+v", f)
		}
	}
}

// TestLyingObserverFramed is the sensor-fault degradation contract: an
// observer whose receive-side connector chatters reports omissions
// about everyone. The accusation graph must re-attribute the evidence —
// indicting the accuser's connector, never the framed subjects.
func TestLyingObserverFramed(t *testing.T) {
	r := newRig(New())
	var accuserIndicted bool
	for i := 0; i < 10; i++ {
		findings := r.epoch(func(g int64) {
			if g%2 == 0 { // a chattering receiver, not a dead bus
				r.omit(0, 3, g)
				r.omit(1, 3, g)
				r.omit(2, 3, g)
			}
		})
		for _, f := range findings {
			switch {
			case f.Subject == 3 && f.Class == core.ComponentBorderline:
				accuserIndicted = true
			case f.Subject != 3:
				t.Fatalf("epoch %d: framed subject indicted: %+v", i, f)
			}
		}
	}
	if !accuserIndicted {
		t.Fatalf("accuser never indicted; Ranked(3) = %+v", r.c.Ranked(3))
	}
	// The framed subjects' beliefs never moved off healthy.
	for f := diagnosis.FRUIndex(0); f < 3; f++ {
		if h := healthy(r.c, f); h < 0.8 {
			t.Errorf("framed FRU %d healthy posterior %.3f, want >= 0.8", f, h)
		}
	}
}

// healthy returns hardware FRU f's posterior probability of being healthy.
func healthy(c *Classifier, f diagnosis.FRUIndex) float64 {
	var post [numHyp]float64
	c.posterior(f, true, post[:])
	return post[hypHealthy]
}

func snapshotBytes(t *testing.T, c *Classifier) []byte {
	t.Helper()
	e := ckpt.NewEncoder()
	e.Put("cls", c)
	return e.Bytes()
}

func restoreFrom(t *testing.T, data []byte) *Classifier {
	t.Helper()
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	c := New()
	if err := d.Get("cls", c); err != nil {
		t.Fatalf("restoring the cls section: %v", err)
	}
	return c
}

// TestCheckpointRoundTrip: encode → decode → encode must be
// byte-identical, and a restored classifier fed the same evidence as
// the uninterrupted one must produce the same findings and the same
// next checkpoint — the bit-identity contract the engine's "cls"
// section relies on.
func TestCheckpointRoundTrip(t *testing.T) {
	evidence := func(r *rig) func(g int64) {
		return func(g int64) {
			r.omit(0, 1, g)
			r.omit(0, 2, g)
		}
	}

	full := newRig(New())
	for i := 0; i < 6; i++ {
		full.epoch(evidence(full))
	}
	mid := snapshotBytes(t, full.c)
	if got := snapshotBytes(t, restoreFrom(t, mid)); !bytes.Equal(mid, got) {
		t.Fatalf("restore→snapshot not byte-identical: %d vs %d bytes", len(mid), len(got))
	}

	// Continue the full run and, in parallel, a run restored at epoch 6.
	// The external evidence state (history, α-counts) is rebuilt by
	// replaying the same epochs on a fresh rig, exactly as the engine
	// restores its own sections alongside the classifier's.
	resumed := newRig(New())
	for i := 0; i < 6; i++ {
		resumed.epoch(evidence(resumed))
	}
	resumed.c = restoreFrom(t, mid)

	for i := 0; i < 4; i++ {
		a := full.epoch(evidence(full))
		b := resumed.epoch(evidence(resumed))
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("epoch %d diverged:\n  full:    %+v\n  resumed: %+v", 6+i, a, b)
		}
	}
	if a, b := snapshotBytes(t, full.c), snapshotBytes(t, resumed.c); !bytes.Equal(a, b) {
		t.Fatal("final checkpoints differ between the full and the resumed run")
	}
}

// layout is the head of a cls section for one FRU and hyp hypotheses.
type layout struct{ hyp int }

func (l layout) Code(c *ckpt.Coder) error {
	var epochs int64
	var abstained uint64
	c.Count(1, "FRUs")
	c.Count(l.hyp, "hypotheses")
	ckpt.Varint(c, &epochs)
	ckpt.Uvarint(c, &abstained)
	return c.Err()
}

// TestRestoreRejectsLayoutMismatch: a checkpoint written with a
// different hypothesis count must be refused, not misinterpreted.
func TestRestoreRejectsLayoutMismatch(t *testing.T) {
	e := ckpt.NewEncoder()
	e.Put("cls", layout{int(numHyp) + 1}) // wrong hypothesis count
	d, err := ckpt.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has("cls") {
		t.Fatal("no cls section")
	}
	if err := d.Get("cls", New()); err == nil {
		t.Fatal("Restore accepted a checkpoint with a mismatched hypothesis count")
	}
}
