package engine_test

import (
	"context"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/telemetry"
)

func diagOptions(seed uint64) []engine.Option {
	return append(smallOptions(seed), engine.WithDiagnosis(0, diagnosis.Options{}))
}

// TestWithTelemetryPopulatesRegistry: an instrumented run publishes the
// engine, simulator, bus and diagnosis metrics.
func TestWithTelemetryPopulatesRegistry(t *testing.T) {
	reg := telemetry.New()
	eng := engine.MustNew(append(diagOptions(1), engine.WithTelemetry(reg))...)
	if eng.Telemetry != reg {
		t.Fatal("engine did not adopt the registry")
	}
	if err := eng.Cluster.RunRounds(context.Background(), 50); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["engine.rounds"]; got != 50 {
		t.Errorf("engine.rounds = %d, want 50", got)
	}
	for _, name := range []string{"sim.events_scheduled", "sim.events_fired", "tt.frames_ok"} {
		if s.Gauges[name] <= 0 {
			t.Errorf("gauge %s = %d, want > 0", name, s.Gauges[name])
		}
	}
	// The TDMA slot chain self-advances via InlineTo, which fires without
	// enqueueing — so fired outruns scheduled on a healthy run.
	if s.Gauges["sim.events_fired"] < s.Gauges["sim.events_scheduled"] {
		t.Errorf("fired %d < scheduled %d after a drained run",
			s.Gauges["sim.events_fired"], s.Gauges["sim.events_scheduled"])
	}
	// The healthy small cluster drops nothing.
	for _, name := range []string{"tt.frames_corrupted", "vnet.crc_failures"} {
		if s.Gauges[name] != 0 {
			t.Errorf("gauge %s = %d, want 0 on a healthy run", name, s.Gauges[name])
		}
	}
	// 50 rounds with the default epoch length must have closed epochs, and
	// every stage histogram observes once per epoch/round.
	if s.Counters["diag.epochs"] == 0 {
		t.Error("diag.epochs = 0, want > 0")
	}
	if got := s.Histograms["diag.collect_ns"].Count; got != 50 {
		t.Errorf("diag.collect_ns count = %d, want 50 (one per round)", got)
	}
	if got := s.Histograms["diag.classify_ns"].Count; got != s.Counters["diag.epochs"] {
		t.Errorf("diag.classify_ns count = %d, want one per epoch (%d)",
			got, s.Counters["diag.epochs"])
	}
	if got := s.Histograms["engine.round_wall_ns"].Count; got != 49 {
		t.Errorf("engine.round_wall_ns count = %d, want 49 (rounds minus the first)", got)
	}
}

// TestTelemetrySimCountersDeterministic: the mirrored simulation counters
// are pure functions of the seed — wall-clock timings vary, the simulated
// state does not.
func TestTelemetrySimCountersDeterministic(t *testing.T) {
	run := func() telemetry.Snapshot {
		reg := telemetry.New()
		eng := engine.MustNew(append(diagOptions(7), engine.WithTelemetry(reg))...)
		if err := eng.Cluster.RunRounds(context.Background(), 40); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	a, b := run(), run()
	for name, av := range a.Gauges {
		if bv := b.Gauges[name]; av != bv {
			t.Errorf("gauge %s differs across identical runs: %d vs %d", name, av, bv)
		}
	}
	for name, av := range a.Counters {
		if bv := b.Counters[name]; av != bv {
			t.Errorf("counter %s differs across identical runs: %d vs %d", name, av, bv)
		}
	}
}

// TestWithTelemetryNilIsDisabled: a nil registry must leave the engine
// entirely uninstrumented — the zero-overhead contract.
func TestWithTelemetryNilIsDisabled(t *testing.T) {
	eng := engine.MustNew(append(diagOptions(1), engine.WithTelemetry(nil))...)
	if eng.Telemetry != nil {
		t.Fatal("nil registry should leave Engine.Telemetry nil")
	}
	if err := eng.Cluster.RunRounds(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
}
