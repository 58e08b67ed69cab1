package scenario

import (
	"bytes"
	"context"
	"testing"

	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/sim"
)

// bayesPlan is an intermittent-internal injection the posterior must
// integrate over many epochs — the interesting case for checkpointing,
// because the belief state mid-accumulation is not reconstructible from
// the symptom history alone.
func bayesPlan(rounds int64) []InjectPlan {
	horizon := sim.Time(rounds) * sim.Time(sim.Millisecond)
	return []InjectPlan{{
		Kind: KindIntermittent, At: sim.Time(300 * sim.Millisecond), Horizon: horizon,
	}}
}

// TestBayesPosteriorDeterminism runs the same seeded system twice with
// the Bayesian stage installed and requires bit-identical engine
// checkpoints — the checkpoint carries the full posterior ("cls"
// section), so equality pins the belief state float for float.
func TestBayesPosteriorDeterminism(t *testing.T) {
	const (
		seed   = 4242
		rounds = 3000
	)
	run := func() []byte {
		sys := Fig10Faulted(seed, diagnosis.Options{}, bayesPlan(rounds),
			engine.WithClassifier(bayes.New()))
		sys.Run(rounds)
		var ck bytes.Buffer
		if err := sys.Engine.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		return ck.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty checkpoint")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("double run diverged: %d vs %d checkpoint bytes", len(a), len(b))
	}
}

// TestBayesCheckpointRestoreRerun cuts a Bayesian run mid-flight,
// restores the checkpoint into a freshly built engine and runs the
// remainder: the final checkpoint — posterior included — must be
// bit-identical to the uninterrupted run's, and the standing verdicts
// must agree. This is the ckpt.Snapshotter contract of the posterior
// state at system scale.
func TestBayesCheckpointRestoreRerun(t *testing.T) {
	const (
		seed   = 4242
		rounds = 3000
		cut    = 1400
	)
	plan := bayesPlan(rounds)
	build := func(extra ...engine.Option) *System {
		return Fig10Faulted(seed, diagnosis.Options{}, plan,
			append([]engine.Option{engine.WithClassifier(bayes.New())}, extra...)...)
	}

	full := build()
	full.Run(rounds)
	var want bytes.Buffer
	if err := full.Engine.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	if len(full.Diag.Assessor.CurrentAll()) == 0 {
		t.Fatal("Bayesian stage emitted no verdict — the round trip would be vacuous")
	}

	half := build()
	half.Run(cut)
	var ck bytes.Buffer
	if err := half.Engine.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}

	resumed := build(engine.WithRestore(ck.Bytes()))
	if err := resumed.Cluster.RunToRoundCtx(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := resumed.Engine.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("restored run diverges from uninterrupted run: %d vs %d checkpoint bytes",
			got.Len(), want.Len())
	}

	wantV := full.Diag.Assessor.CurrentAll()
	gotV := resumed.Diag.Assessor.CurrentAll()
	if len(wantV) != len(gotV) {
		t.Fatalf("verdict count %d after restore, want %d", len(gotV), len(wantV))
	}
	for i := range wantV {
		if wantV[i].FRU != gotV[i].FRU || wantV[i].Class != gotV[i].Class ||
			wantV[i].Pattern != gotV[i].Pattern || wantV[i].Confidence != gotV[i].Confidence {
			t.Errorf("verdict %d: %+v after restore, want %+v", i, gotV[i], wantV[i])
		}
	}
}
