package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"decos/internal/engine"
	"decos/internal/trace"
	"decos/internal/whatif"
)

const restoreSeed = 20050404

// namedRun is one run of an experiment with explicit faults.
type namedRun struct {
	name string
	r    run
}

// explicitRuns lists every run A2–A5, E4, E5, E6 and E10 make at the
// seed, as the experiments build them.
func explicitRuns(seed uint64) []namedRun {
	var out []namedRun
	add := func(name string, r run) { out = append(out, namedRun{name, r}) }
	for _, k := range a2Ks {
		for rep := 0; rep < a2Reps; rep++ {
			seu, intermittent := a2Runs(seed, k, rep)
			add(fmt.Sprintf("A2/k%v/rep%d/seu", k, rep), seu)
			add(fmt.Sprintf("A2/k%v/rep%d/intermittent", k, rep), intermittent)
		}
	}
	add("A3/guardian", a3Run(seed, true))
	add("A3/no-guardian", a3Run(seed, false))
	for _, c := range a4Caps {
		add(fmt.Sprintf("A4/cap%d", c), a4Run(seed, c))
	}
	for _, a := range a5Allocs {
		add(fmt.Sprintf("A5/alloc%d", a), a5Run(seed, a))
	}
	wearout, emi, connector := e4Runs(seed)
	add("E4/wearout", wearout)
	add("E4/emi", emi)
	add("E4/connector", connector)
	add("E5", e5Run(seed))
	jobFault, compFault := e6Runs(seed)
	add("E6/job-fault", jobFault)
	add("E6/component-fault", compFault)
	for _, n := range e10Sizes {
		add(fmt.Sprintf("E10/n%d", n), e10Run(seed, n))
	}
	return out
}

func checkpointOf(t *testing.T, sys *engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExplicitFaultRunsRestore checkpoints each explicit-fault run of the
// experiments midway, restores the checkpoint into a fresh engine and
// runs on: the final checkpoint equals the uninterrupted run's byte for
// byte. A fault injected after build would be missing from the restored
// engine, whose manifest re-executes only the plan.
func TestExplicitFaultRunsRestore(t *testing.T) {
	for _, c := range explicitRuns(restoreSeed) {
		t.Run(c.name, func(t *testing.T) {
			r := c.r
			var mid []byte
			whole := r.build(engine.WithCheckpointSink(func(_ int64, data []byte) error {
				if mid == nil {
					mid = data
				}
				return nil
			}, r.rounds/2))
			whole.Cluster.RunRounds(context.Background(), r.rounds)
			if mid == nil {
				t.Fatalf("no checkpoint at round %d", r.rounds/2)
			}
			want := checkpointOf(t, whole)

			restored := r.build(engine.WithRestore(mid))
			restored.Cluster.RunRounds(context.Background(), r.rounds-restored.StateVersion())
			if got := checkpointOf(t, restored); !bytes.Equal(got, want) {
				t.Fatalf("restored run ends in a %d-byte checkpoint, the uninterrupted run in %d bytes; they differ",
					len(got), len(want))
			}
		})
	}
}

// TestWhatifReplaysE4AndE6 records E4's and E6's runs the way decos-sim
// does (periodic checkpoints, a trace attached outside the engine) and
// replays each with its fault removed at round 100: the factual replica
// cross-checks clean against the recording, and the counterfactual
// diverges.
func TestWhatifReplaysE4AndE6(t *testing.T) {
	const ckptRound = 100
	for _, c := range explicitRuns(restoreSeed) {
		if !strings.HasPrefix(c.name, "E4/") && !strings.HasPrefix(c.name, "E6/") {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			r := c.r
			var ckpt []byte
			sys := r.build(engine.WithCheckpointSink(func(round int64, data []byte) error {
				if round+1 == ckptRound {
					ckpt = bytes.Clone(data)
				}
				return nil
			}, ckptRound))
			var buf bytes.Buffer
			trace.AttachSink(sys.Cluster, sys.Diag, sys.Injector,
				trace.NewNDJSONSink(&buf), trace.Options{TrustEveryEpochs: 5})
			sys.Cluster.RunRounds(context.Background(), r.rounds)
			var recorded []trace.Event
			rd, _ := trace.OpenReader(bytes.NewReader(buf.Bytes()))
			if err := rd.ReadAll(func(e trace.Event) { recorded = append(recorded, e) }); err != nil {
				t.Fatal(err)
			}

			rep, err := whatif.Run(whatif.Config{
				Seed: r.seed, Opts: r.opts, Plan: r.plan, Rounds: r.rounds,
				Checkpoint: ckpt, Recorded: recorded,
				Hyp: whatif.Hypothesis{Kind: whatif.Remove, Target: sys.Injector.Ledger()[0].ID},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.TraceMatch == nil || rep.TraceMatch.Err != nil || rep.TraceMatch.Compared == 0 {
				t.Fatalf("factual replica does not reproduce the recording: %+v", rep.TraceMatch)
			}
			if rep.Div == nil {
				t.Errorf("removing %s changed nothing", sys.Injector.Ledger()[0])
			}
		})
	}
}
