package experiments

import (
	"context"
	"fmt"

	"decos/internal/component"
	"decos/internal/engine"
	"decos/internal/sim"
	"decos/internal/tt"
)

// E1CoreServices verifies that the four core services of the waist-line
// architecture (paper Fig. 1, Section II-B) hold on the simulated base
// architecture, each under a single-FCR fault:
//
//	C1 predictable transport   — slot instants match the schedule exactly
//	C2 fault-tolerant clock sync — precision stays within Π under drift
//	C3 strong fault isolation  — a babbling idiot never disturbs foreign slots
//	C4 consistent diagnosis    — membership views agree; fail-silent node
//	                             detected within one round
func E1CoreServices(seed uint64) *Result {
	// C1: record slot firing offsets.
	maxJitter := int64(0)
	slotCount := 0
	eng := engine.MustNew(
		engine.WithTopology(4, 250*sim.Microsecond, 64),
		engine.WithSeed(seed),
		engine.WithClocks(100, 0.1, 25, 1),
		engine.WithBuild(func(cl *component.Cluster) {
			for i := 0; i < 4; i++ {
				cl.AddComponent(tt.NodeID(i), fmt.Sprintf("c%d", i), float64(i), 0)
			}
			// One trivial job per component so rounds have work.
			cl.Env.DefineConst("x", 1)
			das := cl.AddDAS("E1", component.NonSafetyCritical)
			for i := 0; i < 4; i++ {
				cl.AddJob(das, cl.Component(tt.NodeID(i)), fmt.Sprintf("j%d", i), 0,
					component.JobFunc(func(ctx *component.Context) {}))
			}
			cl.Bus.Observe(func(f *tt.Frame, _ []tt.FrameStatus) {
				want := cl.Cfg.SlotStart(f.Round, f.Slot)
				if d := f.At.Micros() - want.Micros(); d != 0 {
					if d < 0 {
						d = -d
					}
					if d > maxJitter {
						maxJitter = d
					}
				}
				slotCount++
			})
		}),
	)
	cl := eng.Cluster

	// Phase 1: healthy run, track precision.
	worstPrecision := 0.0
	cl.OnRound(func(round int64, now sim.Time) {
		if p := cl.Bus.Clocks.Precision(now); p > worstPrecision {
			worstPrecision = p
		}
	})
	cl.RunRounds(context.Background(), 2000)

	// Phase 2: babbling idiot on node 3 (C3).
	cl.Bus.SetBabbling(3, true)
	corrupted := 0
	phase2 := true
	cl.Bus.Observe(func(f *tt.Frame, _ []tt.FrameStatus) {
		if phase2 && f.Sender != 3 && f.Status.Failed() {
			corrupted++
		}
	})
	cl.RunRounds(context.Background(), 1000)
	blocks := cl.Bus.GuardianBlocks
	cl.Bus.SetBabbling(3, false)
	phase2 = false

	// Phase 3: fail-silent node 2 (C4): detection latency + consistency.
	killRound := cl.Round()
	cl.Bus.SetAlive(2, false)
	cl.RunRounds(context.Background(), 10)
	round := cl.Round()
	detected := int64(-1)
	for r := killRound; r <= round; r++ {
		if !cl.Bus.Membership(0).Member(2, r) {
			detected = r - killRound
			break
		}
	}
	consistent := true
	for _, n := range []tt.NodeID{0, 1, 3} {
		if !cl.Bus.Membership(n).Agrees(cl.Bus.Membership(0), round) {
			consistent = false
		}
	}

	t := newTable("core service", "requirement", "measured", "holds")
	t.row("C1 transport", "slot jitter = 0 µs", fmt.Sprintf("%d µs over %d slots", maxJitter, slotCount), maxJitter == 0)
	t.row("C2 clock sync", "precision ≤ Π=25 µs", fmt.Sprintf("%.2f µs worst", worstPrecision), worstPrecision <= 25)
	t.row("C3 isolation", "0 foreign slots disturbed", fmt.Sprintf("%d disturbed, %d attempts blocked", corrupted, blocks), corrupted == 0 && blocks > 0)
	t.row("C4 membership", "consistent, ≤ 2 rounds", fmt.Sprintf("detected after %d rounds, consistent=%v", detected, consistent), consistent && detected >= 0 && detected <= 2)

	return &Result{
		ID:     "E1",
		Figure: "Fig. 1/2 — core services of the integrated architecture",
		Table:  t.String(),
		Metrics: map[string]float64{
			"slot_jitter_us":      float64(maxJitter),
			"worst_precision_us":  worstPrecision,
			"foreign_disturbed":   float64(corrupted),
			"guardian_blocks":     float64(blocks),
			"detect_latency_rnds": float64(detected),
			"membership_agree":    b2f(consistent),
		},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
