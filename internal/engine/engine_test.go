package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"decos/internal/component"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/tt"
)

// smallOptions is a minimal runnable configuration: four components, one
// DAS, one trivial job each.
func smallOptions(seed uint64) []engine.Option {
	return []engine.Option{
		engine.WithTopology(4, 250*sim.Microsecond, 64),
		engine.WithSeed(seed),
		engine.WithClocks(100, 0.1, 25, 1),
		engine.WithBuild(func(cl *component.Cluster) {
			cl.Env.DefineConst("x", 1)
			das := cl.AddDAS("T", component.NonSafetyCritical)
			for i := 0; i < 4; i++ {
				c := cl.AddComponent(tt.NodeID(i), fmt.Sprintf("c%d", i), float64(i), 0)
				cl.AddJob(das, c, fmt.Sprintf("j%d", i), 0,
					component.JobFunc(func(ctx *component.Context) {}))
			}
		}),
	}
}

func TestNewValidatesTopology(t *testing.T) {
	if _, err := engine.New(); err == nil {
		t.Fatal("New() without topology should fail")
	}
	if _, err := engine.New(engine.WithTopology(4, 0, 64)); err == nil {
		t.Fatal("New() with zero slot length should fail")
	}
	if _, err := engine.New(engine.WithTopology(0, 250*sim.Microsecond, 64)); err == nil {
		t.Fatal("New() with zero nodes should fail")
	}
}

func TestRunCompletesRounds(t *testing.T) {
	eng := engine.MustNew(smallOptions(1)...)
	if err := eng.Cluster.RunRounds(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	// The bus counter names the round in progress: after 50 full rounds it
	// sits on index 49.
	if got := eng.Cluster.Round(); got != 49 {
		t.Fatalf("Round = %d, want 49", got)
	}
}

// TestRunCancellation: a cancelled context aborts the run mid-way with
// ctx.Err(); the cluster halts partway with observable state intact.
func TestRunCancellation(t *testing.T) {
	eng := engine.MustNew(smallOptions(1)...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Cluster.RunRounds(ctx, 1000); err != context.Canceled {
		t.Fatalf("RunRounds err = %v, want context.Canceled", err)
	}
	if got := eng.Cluster.Round(); got >= 1000 {
		t.Fatalf("Round = %d after immediate cancel, want < 1000", got)
	}
	// The engine stays usable: a fresh context resumes the run.
	if err := eng.Cluster.RunRounds(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
}

// TestNopSinkInstallsNoRecorder: a nil sink, the one that records nothing,
// must skip instrumentation entirely (the zero-allocation hot-path
// contract).
func TestNopSinkInstallsNoRecorder(t *testing.T) {
	eng := engine.MustNew(append(smallOptions(1),
		engine.WithSink(nil, trace.Options{}))...)
	if eng.Recorder != nil {
		t.Fatal("nil sink must not attach a recorder")
	}
}

// TestSinkReceivesEvents: a real sink attached through the engine observes
// the run.
func TestSinkReceivesEvents(t *testing.T) {
	counting := trace.NewCountingSink()
	eng := engine.MustNew(append(smallOptions(1),
		engine.WithSink(counting, trace.Options{AllFrames: true}))...)
	if eng.Recorder == nil {
		t.Fatal("sink configured but no recorder attached")
	}
	eng.Cluster.RunRounds(context.Background(), 20)
	if counting.Count("frame") == 0 {
		t.Fatal("counting sink observed no frame events over 20 rounds with AllFrames")
	}
}

// TestTraceWriterMatchesDirectAttach: tracing through the engine produces
// the same stream as the pre-engine direct trace.Attach wiring.
func TestTraceWriterMatchesDirectAttach(t *testing.T) {
	var viaEngine bytes.Buffer
	eng := engine.MustNew(append(smallOptions(7),
		engine.WithSink(trace.NewNDJSONSink(&viaEngine), trace.Options{AllFrames: true}))...)
	eng.Cluster.RunRounds(context.Background(), 30)

	var direct bytes.Buffer
	eng2 := engine.MustNew(smallOptions(7)...)
	trace.AttachSink(eng2.Cluster, eng2.Diag, eng2.Injector,
		trace.NewNDJSONSink(&direct), trace.Options{AllFrames: true})
	eng2.Cluster.RunRounds(context.Background(), 30)

	if viaEngine.String() != direct.String() {
		t.Fatalf("engine-attached trace differs from direct attach:\n%d vs %d bytes",
			viaEngine.Len(), direct.Len())
	}
}

// TestFaultManifestHooks: WithFaults hooks run against the started
// cluster's injector, in registration order.
func TestFaultManifestHooks(t *testing.T) {
	var order []int
	eng := engine.MustNew(append(smallOptions(1),
		engine.WithFaults(func(inj *faults.Injector) {
			if inj == nil {
				t.Error("manifest hook received nil injector")
			}
			order = append(order, 1)
		}),
		engine.WithFaults(func(inj *faults.Injector) { order = append(order, 2) }),
	)...)
	if eng.Injector == nil {
		t.Fatal("engine without explicit faults still builds an injector")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("manifest hooks ran as %v, want [1 2]", order)
	}
}
