// Package clock models the fault-tolerant clock synchronization core service
// of the DECOS time-triggered architecture (core service C2 in the paper's
// Fig. 1) together with the sparse time base ("action lattice") on which the
// diagnostic subsystem orders its observations.
//
// Each component owns a local oscillator with a systematic drift rate (a
// quartz property) plus short-term jitter. Once per TDMA round the cluster
// resynchronizes with the fault-tolerant average (FTA) algorithm: every node
// measures the deviation of every other node's clock from its own, discards
// the k largest and k smallest measurements (tolerating k arbitrary faulty
// clocks), and applies the mean of the rest as a correction. A node whose
// deviation exceeds the precision window — e.g. because of a defective
// quartz, one of the component-internal faults of the paper's Section
// IV-A.1c — loses synchronization and is excluded from the membership.
package clock

import (
	"fmt"
	"math"

	"decos/internal/sim"
)

// Oscillator is a local free-running clock. Local time progresses at
// (1 + DriftPPM·1e-6) of global simulated time, plus white measurement
// jitter. Real quartz drift for automotive-grade parts is on the order of
// 1e-5..1e-4; a "defective quartz" fault raises DriftPPM by orders of
// magnitude.
type Oscillator struct {
	DriftPPM  float64 // systematic rate deviation, parts per million
	JitterUS  float64 // stddev of per-reading jitter, microseconds
	offsetUS  float64 // accumulated state correction, microseconds
	baseAt    sim.Time
	baseLocal float64
	rng       *sim.RNG
}

// NewOscillator returns an oscillator with the given systematic drift and
// reading jitter. The rng is used only for jitter; pass nil for a jitter-free
// ideal oscillator.
func NewOscillator(driftPPM, jitterUS float64, rng *sim.RNG) *Oscillator {
	return &Oscillator{DriftPPM: driftPPM, JitterUS: jitterUS, rng: rng}
}

// Read returns the local clock reading (in local microseconds) at global
// time now.
func (o *Oscillator) Read(now sim.Time) float64 {
	elapsed := float64(now - o.baseAt)
	local := o.baseLocal + elapsed*(1+o.DriftPPM*1e-6) + o.offsetUS
	if o.rng != nil && o.JitterUS > 0 {
		local += o.rng.Norm(0, o.JitterUS)
	}
	return local
}

// Adjust applies a state correction of deltaUS local microseconds at global
// time now (the FTA correction term).
func (o *Oscillator) Adjust(now sim.Time, deltaUS float64) {
	// Fold current state into the base so the correction is a clean step.
	elapsed := float64(now - o.baseAt)
	o.baseLocal += elapsed*(1+o.DriftPPM*1e-6) + o.offsetUS
	o.baseAt = now
	o.offsetUS = deltaUS
}

// Deviation returns the deviation of the local clock from global time at
// time now, in microseconds (positive = local clock fast).
func (o *Oscillator) Deviation(now sim.Time) float64 {
	return o.Read(now) - float64(now)
}

// FTA computes the fault-tolerant average of the given deviation
// measurements, discarding the k smallest and k largest values. It returns
// the average of the remainder. If 2k >= len(devs) it returns 0 (no
// correction possible with so few readings).
func FTA(devs []float64, k int) float64 {
	n := len(devs)
	if n == 0 || 2*k >= n {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, devs)
	return ftaSorted(sorted, k)
}

// ftaSorted is FTA's core on a caller-owned scratch copy of the
// measurements; it sorts in place.
func ftaSorted(scratch []float64, k int) float64 {
	n := len(scratch)
	if n == 0 || 2*k >= n {
		return 0
	}
	insertionSort(scratch)
	sum := 0.0
	for _, v := range scratch[k : n-k] {
		sum += v
	}
	return sum / float64(n-2*k)
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Cluster is the set of synchronized oscillators of one DECOS cluster.
type Cluster struct {
	Oscillators []*Oscillator
	// PrecisionUS is the synchronization window Π: a node whose post-sync
	// deviation from the ensemble exceeds Π is considered out of sync.
	PrecisionUS float64
	// Tolerated is k, the number of arbitrary faulty clocks the FTA step
	// tolerates.
	Tolerated int

	inSync []bool

	// Resync scratch, reused every round.
	devs        []float64
	idx         []int
	sortScratch []float64
}

// NewCluster builds a cluster of n oscillators with drifts drawn uniformly
// from [-maxDriftPPM, +maxDriftPPM] and the given jitter.
func NewCluster(n int, maxDriftPPM, jitterUS, precisionUS float64, k int, rng *sim.RNG) *Cluster {
	c := &Cluster{
		PrecisionUS: precisionUS,
		Tolerated:   k,
		inSync:      make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.Oscillators = append(c.Oscillators, NewOscillator(drawDrift(rng, maxDriftPPM), jitterUS, rng))
		c.inSync[i] = true
	}
	return c
}

// drawDrift draws one oscillator's drift uniformly from ±maxDriftPPM.
func drawDrift(rng *sim.RNG, maxDriftPPM float64) float64 {
	return (2*rng.Float64() - 1) * maxDriftPPM
}

// Reset returns the ensemble to the state NewCluster builds — every
// oscillator in sync, with no correction folded in — drawing the drifts
// afresh from rng in oscillator order, as NewCluster draws them.
func (c *Cluster) Reset(maxDriftPPM, jitterUS float64, rng *sim.RNG) {
	for i, o := range c.Oscillators {
		*o = Oscillator{DriftPPM: drawDrift(rng, maxDriftPPM), JitterUS: jitterUS, rng: rng}
		c.inSync[i] = true
	}
}

// InSync reports whether node i was within the precision window at the last
// Resync.
func (c *Cluster) InSync(i int) bool { return c.inSync[i] }

// Resync performs one FTA resynchronization round at global time now.
// Nodes whose deviation from the fault-tolerant ensemble midpoint exceeds
// PrecisionUS are marked out of sync and do not contribute to subsequent
// corrections. Precision reads the achieved precision.
func (c *Cluster) Resync(now sim.Time) {
	devs := c.devs[:0]
	idx := c.idx[:0]
	for i, o := range c.Oscillators {
		if !c.inSync[i] {
			continue
		}
		devs = append(devs, o.Deviation(now))
		idx = append(idx, i)
	}
	c.devs, c.idx = devs[:0], idx[:0]
	c.sortScratch = append(c.sortScratch[:0], devs...)
	mid := ftaSorted(c.sortScratch, c.Tolerated)
	// Correct each in-sync node toward the ensemble midpoint and check the
	// precision window.
	for j, i := range idx {
		corr := mid - devs[j]
		if math.Abs(devs[j]-mid) > c.PrecisionUS {
			c.inSync[i] = false
			continue
		}
		c.Oscillators[i].Adjust(now, corr)
	}
}

// Readmit marks node i as in sync again (after repair/restart) and snaps
// its oscillator onto the synchronized ensemble. Snapping to the ensemble
// midpoint — not to an external time reference — matters: the ensemble's
// notion of time random-walks away from any external reference, and a node
// integrated against the wrong reference would immediately be expelled
// again.
func (c *Cluster) Readmit(now sim.Time, i int) {
	// Ensemble midpoint over the other in-sync nodes.
	var sum float64
	n := 0
	for j, o := range c.Oscillators {
		if j == i || !c.inSync[j] {
			continue
		}
		sum += o.Deviation(now)
		n++
	}
	target := 0.0
	if n > 0 {
		target = sum / float64(n)
	}
	c.inSync[i] = true
	c.Oscillators[i].Adjust(now, target-c.Oscillators[i].Deviation(now))
}

// Precision returns the maximum pairwise deviation among in-sync nodes at
// time now, in microseconds. It returns 0 when fewer than two nodes are in
// sync.
func (c *Cluster) Precision(now sim.Time) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	count := 0
	for i, o := range c.Oscillators {
		if !c.inSync[i] {
			continue
		}
		d := o.Deviation(now)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
		count++
	}
	if count < 2 {
		return 0
	}
	return hi - lo
}

// SyncedCount returns the number of in-sync nodes.
func (c *Cluster) SyncedCount() int {
	n := 0
	for _, ok := range c.inSync {
		if ok {
			n++
		}
	}
	return n
}

func (c *Cluster) String() string {
	return fmt.Sprintf("clock.Cluster{n=%d, Π=%.1fµs, k=%d, synced=%d}",
		len(c.Oscillators), c.PrecisionUS, c.Tolerated, c.SyncedCount())
}
