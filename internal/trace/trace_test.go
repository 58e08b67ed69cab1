package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// traceRun drives a Fig. 10 system with a recorder attached. Because the
// recorder must attach before Start, we rebuild the scenario manually via
// its exported pieces — Fig10 already started the cluster, so we attach to
// a fresh one through the scenario helper and accept frame/symptom capture
// only from hooks that tolerate late attachment (bus observers and round
// hooks can be added at any time before the relevant events).
func traceRun(t *testing.T, opts trace.Options, plan ...scenario.InjectPlan) (*engine.Engine, *trace.Recorder, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	sys := scenario.Fig10(31, diagnosis.Options{}, plan)
	rec := trace.AttachSink(sys.Cluster, sys.Diag, sys.Injector, trace.NewNDJSONSink(&buf), opts)
	return sys, rec, &buf
}

func TestRecorderCapturesIncident(t *testing.T) {
	sys, rec, buf := traceRun(t, trace.Options{TrustEveryEpochs: 10}, scenario.InjectPlan{
		At: sim.Time(100 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "connector-tx", Component: 0, Rate: 0.3},
	})
	sys.Cluster.RunRounds(context.Background(), 2000)

	if rec.Err != nil {
		t.Fatalf("recorder error: %v", rec.Err)
	}
	if rec.Events == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]int{}
	dec := json.NewDecoder(buf)
	for dec.More() {
		var e trace.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("malformed JSONL: %v", err)
		}
		kinds[e.Kind]++
		if e.T < 0 {
			t.Fatalf("negative timestamp: %+v", e)
		}
	}
	for _, want := range []string{"frame", "symptom", "verdict", "injection", "trust"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events captured (got %v)", want, kinds)
		}
	}
	// Only failed frames by default: count must be far below total slots.
	if kinds["frame"] > 4*2000/2 {
		t.Errorf("frame events = %d, expected failed-only subset", kinds["frame"])
	}
}

func TestRecorderHealthyRunIsQuiet(t *testing.T) {
	sys, rec, buf := traceRun(t, trace.Options{})
	sys.Cluster.RunRounds(context.Background(), 1000)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.Events != 0 {
		t.Errorf("healthy run produced %d events:\n%s", rec.Events, buf.String())
	}
}

func TestRecorderAllFrames(t *testing.T) {
	sys, rec, _ := traceRun(t, trace.Options{AllFrames: true})
	sys.Cluster.RunRounds(context.Background(), 50)
	if rec.Events < 190 { // 4 slots × 50 rounds, minus startup jitter
		t.Errorf("AllFrames recorded only %d events", rec.Events)
	}
}

func TestRecorderStopsOnWriteError(t *testing.T) {
	sys := scenario.Fig10(32, diagnosis.Options{}, nil)
	rec := trace.AttachSink(sys.Cluster, sys.Diag, sys.Injector, trace.NewNDJSONSink(failWriter{}), trace.Options{AllFrames: true})
	sys.Cluster.RunRounds(context.Background(), 20)
	if rec.Err == nil {
		t.Fatal("write error not surfaced")
	}
	if rec.Events != 0 {
		t.Errorf("events counted despite failing writer: %d", rec.Events)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errFail
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestEventJSONShape(t *testing.T) {
	sys, _, buf := traceRun(t, trace.Options{}, scenario.InjectPlan{
		At: sim.Time(50 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "seu", Component: 1},
	})
	sys.Cluster.RunRounds(context.Background(), 500)
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, `"kind"`) || !strings.Contains(first, `"t_us"`) {
		t.Errorf("unexpected JSON shape: %s", first)
	}
}
