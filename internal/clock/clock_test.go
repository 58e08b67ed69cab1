package clock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"decos/internal/sim"
)

func TestOscillatorIdealTracksGlobal(t *testing.T) {
	o := NewOscillator(0, 0, nil)
	for _, at := range []sim.Time{0, 1000, sim.Time(sim.Second)} {
		if got := o.Read(at); got != float64(at) {
			t.Errorf("ideal oscillator Read(%v) = %v", at, got)
		}
	}
}

func TestOscillatorDrift(t *testing.T) {
	o := NewOscillator(100, 0, nil) // 100 ppm fast
	at := sim.Time(sim.Second)      // 1e6 µs
	want := 1e6 * (1 + 100e-6)
	if got := o.Read(at); math.Abs(got-want) > 1e-6 {
		t.Errorf("Read = %v, want %v", got, want)
	}
	if dev := o.Deviation(at); math.Abs(dev-100) > 1e-6 {
		t.Errorf("Deviation = %v µs, want 100", dev)
	}
}

func TestOscillatorAdjustStepsAndDriftContinues(t *testing.T) {
	o := NewOscillator(50, 0, nil)
	t1 := sim.Time(sim.Second)
	dev := o.Deviation(t1)
	o.Adjust(t1, -dev) // snap onto global time
	if d := o.Deviation(t1); math.Abs(d) > 1e-9 {
		t.Fatalf("deviation after snap = %v", d)
	}
	// Drift accumulates again from the adjustment point.
	t2 := t1.Add(sim.Second)
	if d := o.Deviation(t2); math.Abs(d-50) > 1e-6 {
		t.Errorf("deviation 1s after snap = %v, want 50", d)
	}
}

func TestFTADiscardsExtremes(t *testing.T) {
	devs := []float64{-1000, 1, 2, 3, 1000}
	if got := ftaSorted(devs, 1); math.Abs(got-2) > 1e-9 {
		t.Errorf("FTA = %v, want 2", got)
	}
}

func TestFTADegenerate(t *testing.T) {
	if ftaSorted(nil, 1) != 0 {
		t.Error("FTA(nil) != 0")
	}
	if ftaSorted([]float64{5, 6}, 1) != 0 {
		t.Error("FTA with 2k >= n should return 0")
	}
}

// Property: FTA with k=1 of any ≥3 values lies within [min, max] of the
// middle values, so a single arbitrarily faulty clock cannot drag the
// correction outside the range of the correct clocks.
func TestFTABoundedByCorrectClocks(t *testing.T) {
	f := func(correct []float64, faulty float64) bool {
		if len(correct) < 3 {
			return true
		}
		for _, v := range correct {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.IsNaN(faulty) || math.IsInf(faulty, 0) {
			return true
		}
		all := append(append([]float64{}, correct...), faulty)
		got := ftaSorted(all, 1)
		sorted := append([]float64{}, correct...)
		sort.Float64s(sorted)
		// The FTA average discards one extreme on each side, so with one
		// faulty value the result is bounded by the correct values' range.
		return got >= sorted[0]-1e-9 && got <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClusterResyncMaintainsPrecision(t *testing.T) {
	rng := sim.NewRNG(1)
	c := NewCluster(6, 100, 0, 50, 1, rng) // ±100 ppm, Π=50µs
	// Resync every 2 ms for 1000 rounds: with 100 ppm drift, per-round
	// divergence is ≤ 0.4 µs, so precision must stay well within Π.
	now := sim.Time(0)
	worst := 0.0
	for r := 0; r < 1000; r++ {
		now = now.Add(2 * sim.Millisecond)
		c.Resync(now)
		worst = math.Max(worst, c.Precision(now))
	}
	if c.SyncedCount() != 6 {
		t.Fatalf("lost sync: %d/6 nodes in sync", c.SyncedCount())
	}
	if worst > 10 {
		t.Errorf("worst precision %v µs, want well under Π=50", worst)
	}
}

func TestClusterDefectiveQuartzLosesSync(t *testing.T) {
	rng := sim.NewRNG(2)
	c := NewCluster(5, 50, 0, 20, 1, rng)
	// Node 0's quartz goes defective: drift jumps to 50 000 ppm (5%).
	c.Oscillators[0].DriftPPM = 50000
	now := sim.Time(0)
	lost := -1
	for r := 0; r < 100; r++ {
		now = now.Add(2 * sim.Millisecond)
		c.Resync(now)
		if !c.InSync(0) {
			lost = r
			break
		}
	}
	if lost < 0 {
		t.Fatal("defective quartz node never lost sync")
	}
	if c.SyncedCount() != 4 {
		t.Errorf("SyncedCount = %d, want 4", c.SyncedCount())
	}
	// The healthy majority keeps its precision.
	if p := c.Precision(now); p > 20 {
		t.Errorf("healthy ensemble precision %v µs after exclusion", p)
	}
}

func TestClusterReadmit(t *testing.T) {
	rng := sim.NewRNG(3)
	c := NewCluster(4, 50, 0, 20, 1, rng)
	c.Oscillators[1].DriftPPM = 100000
	now := sim.Time(0)
	for r := 0; r < 50 && c.InSync(1); r++ {
		now = now.Add(2 * sim.Millisecond)
		c.Resync(now)
	}
	if c.InSync(1) {
		t.Fatal("node 1 should have lost sync")
	}
	// Repair: quartz replaced, node readmitted.
	c.Oscillators[1].DriftPPM = 10
	c.Readmit(now, 1)
	if !c.InSync(1) {
		t.Fatal("Readmit did not restore sync flag")
	}
	for r := 0; r < 100; r++ {
		now = now.Add(2 * sim.Millisecond)
		c.Resync(now)
	}
	if !c.InSync(1) {
		t.Error("repaired node lost sync again")
	}
}

func TestPrecisionFewNodes(t *testing.T) {
	rng := sim.NewRNG(4)
	c := NewCluster(1, 50, 0, 20, 0, rng)
	if c.Precision(0) != 0 {
		t.Error("precision with one node should be 0")
	}
}
