package pack

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/trace"
	"decos/internal/tt"
)

// inertSpecs holds one Fig. 10 fault per kind, activating at 150 ms. The
// connectors drop every frame, so a hook of theirs left on the bus would
// show in the next frame it sees.
var inertSpecs = map[string]FaultSpec{
	"emi-burst":          {Component: -1, X: 0.5, Radius: 2, DurationMS: 10, Bits: 4},
	"seu":                {Component: 2},
	"power-dip":          {Component: 1, DurationMS: 20},
	"connector-tx":       {Component: 0, Rate: 1},
	"connector-rx":       {Component: 1, Rate: 1},
	"wearout":            {Component: 0, TauMS: 400, BaseRatePerHour: 3600 * 40, MaxFactor: 20, DriftPerHour: 3600 * 20},
	"intermittent":       {Component: 2, RatePerHour: 3600 * 50},
	"permanent-silent":   {Component: 1},
	"permanent-babbling": {Component: 1},
	"quartz":             {Component: 1, DriftPPM: 100_000},
	"transient-quartz":   {Component: 1, DriftPPM: 100_000, DurationMS: 50},
	"misconfig-queue":    {Component: -1, Job: "C/C2", Channel: ChLoad, QueueCap: 1},
	"bohrbug":            {Component: -1, Job: "A/A1", Channel: ChSpeed, Threshold: math.Inf(-1), Value: 400},
	"heisenbug":          {Component: -1, Job: "A/A1", Channel: ChSpeed, Rate: 0.5, Value: 500},
	"job-crash":          {Component: -1, Job: "A/A1"},
	"sensor-stuck":       {Component: -1, Job: "A/A1", Value: 60},
	"sensor-drift":       {Component: -1, Job: "A/A1", DriftPerHour: 3600 * 1000},
}

// inertHookKinds are the kinds whose primitive installs bus hooks.
var inertHookKinds = []string{"connector-rx", "connector-tx", "emi-burst", "intermittent", "permanent-babbling", "seu", "wearout"}

// inertManifest is a 400-round Fig. 10 pack with the kind's fault, or no
// fault for kind "".
func inertManifest(t *testing.T, kind string) *Manifest {
	t.Helper()
	m := &Manifest{Pack: Version, Name: "inert", Seed: 20050404, Rounds: 400, Topology: Topology{Kind: "fig10"}}
	if kind != "" {
		f, ok := inertSpecs[kind]
		if !ok {
			t.Fatalf("no Fig. 10 spec for fault kind %q", kind)
		}
		f.Kind, f.AtMS = kind, 150
		m.Faults = []FaultSpec{f}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// inertTrace runs the manifest with every frame traced and returns the
// trace's NDJSON lines, injection records left out. remove deactivates
// the fault once it is applied, before the first round.
func inertTrace(t *testing.T, m *Manifest, remove bool) []string {
	t.Helper()
	var buf bytes.Buffer
	opts := []engine.Option{engine.WithSink(trace.NewNDJSONSink(&buf), trace.Options{AllFrames: true})}
	if remove {
		opts = append(opts, engine.WithFaults(func(inj *faults.Injector) { inj.Ledger()[0].Deactivate() }))
	}
	e, err := m.Engine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.Cluster.RunRounds(context.Background(), m.Rounds)
	return slices.DeleteFunc(strings.Split(buf.String(), "\n"), func(line string) bool {
		return strings.Contains(line, `"kind":"injection"`)
	})
}

// TestDeactivatedFaultIsInert pins that a repaired fault does nothing,
// for every kind the validator knows. (a) A fault deactivated before the
// first round leaves the trace of the fault-free run, injection records
// aside, while the same fault left active changes it. (b) A fault that
// installs bus hooks, deactivated while they are installed, leaves none
// behind: the primitives' hooks do not check the activation themselves,
// so one left on the bus would perturb a later frame or reception.
func TestDeactivatedFaultIsInert(t *testing.T) {
	clean := inertTrace(t, inertManifest(t, ""), false)
	var hookKinds []string
	for _, kind := range sortedKeys(faultKinds) {
		t.Run(kind, func(t *testing.T) {
			m := inertManifest(t, kind)
			if slices.Equal(inertTrace(t, m, false), clean) {
				t.Fatal("the active fault leaves the fault-free trace")
			}
			if got := inertTrace(t, m, true); !slices.Equal(got, clean) {
				i := 0
				for i < min(len(got), len(clean)) && got[i] == clean[i] {
					i++
				}
				t.Errorf("removed fault changed the trace at event %d of %d", i, len(clean))
			}

			e, err := m.Engine()
			if err != nil {
				t.Fatal(err)
			}
			bus, act := e.Cluster.Bus, e.Injector.Ledger()[0]
			horizon := bus.HookHorizon()
			removed, perturbed := false, 0
			bus.Observe(func(f *tt.Frame, per []tt.FrameStatus) {
				switch {
				case removed:
					if f.Status != tt.FrameOK {
						perturbed++
					}
					for _, st := range per {
						if st != tt.FrameOK {
							perturbed++
						}
					}
				case bus.HookHorizon() > horizon:
					act.Deactivate()
					removed = true
					hookKinds = append(hookKinds, kind)
				}
			})
			e.Cluster.RunRounds(context.Background(), m.Rounds)
			if perturbed > 0 {
				t.Errorf("%d frames and receptions perturbed after the fault was removed with its hooks installed", perturbed)
			}
		})
	}
	if !slices.Equal(hookKinds, inertHookKinds) {
		t.Errorf("kinds removed with bus hooks installed: %v, want %v", hookKinds, inertHookKinds)
	}
}
