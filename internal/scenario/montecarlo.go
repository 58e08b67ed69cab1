package scenario

import (
	"context"
	"math"
)

// Stat summarizes one metric over Monte Carlo replicates: sample mean,
// half-width of the normal-approximation 95 % confidence interval
// (1.96·s/√n, 0 when n < 2) and the observed range.
type Stat struct {
	Mean     float64
	CI95     float64
	Min, Max float64
	N        int
}

// newStat folds a sample slice into a Stat.
func newStat(xs []float64) Stat {
	s := Stat{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(s.N-1))
	s.CI95 = 1.96 * sd / math.Sqrt(float64(s.N))
	return s
}

// MonteCarloResult aggregates N replicate campaigns. Pipeline metrics
// describe whatever classification stage Campaign.Classifier installs;
// Baseline metrics describe the OBD advisor attached alongside.
type MonteCarloResult struct {
	Replicates int
	// Completed counts replicates that ran to the end; a cancelled run
	// aggregates only those (Partial is then true).
	Completed int
	Partial   bool

	PipelineAccuracy Stat
	PipelineNFF      Stat
	BaselineAccuracy Stat
	BaselineNFF      Stat
	// FalseAlarms is the pipeline's false-alarm count on fault-free
	// vehicles per replicate.
	FalseAlarms Stat
}

// MonteCarlo runs n seeded replicates of the campaign and returns
// mean ± 95 % CI per audit metric. Replicate r reseeds the whole
// campaign with a seed derived from Seed and r, so replicates draw
// independent fault mixes, targets and activation instants — the
// between-replicate spread measures how sensitive a verdict-accuracy
// claim is to the draw, which a single campaign run cannot show.
// All replicates' vehicles run through one pool of Workers workers
// (replicate by replicate, in vehicle order), each worker resetting one
// engine from vehicle to vehicle, so no replicate waits for the last
// vehicle of the one before it. Cancellation stops the pool; the result
// then aggregates the leading replicates whose vehicles all completed.
func (c Campaign) MonteCarlo(ctx context.Context, n int) *MonteCarloResult {
	return aggregate(ctx, n, c.runReplicates(ctx, n, nil))
}

// aggregate folds the leading replicates whose vehicles all completed
// into the per-metric statistics.
func aggregate(ctx context.Context, n int, reps []*replicate) *MonteCarloResult {
	mc := &MonteCarloResult{Replicates: n}
	var pAcc, pNFF, bAcc, bNFF, fa []float64
	for _, rep := range reps {
		res := rep.result(ctx)
		if res.Partial {
			break
		}
		mc.Completed++
		pAcc = append(pAcc, res.DECOS.ClassAccuracy())
		pNFF = append(pNFF, res.DECOS.NFFRatio())
		bAcc = append(bAcc, res.OBD.ClassAccuracy())
		bNFF = append(bNFF, res.OBD.NFFRatio())
		fa = append(fa, float64(res.DECOSFalseAlarms))
	}
	mc.Partial = mc.Completed < n
	mc.PipelineAccuracy = newStat(pAcc)
	mc.PipelineNFF = newStat(pNFF)
	mc.BaselineAccuracy = newStat(bAcc)
	mc.BaselineNFF = newStat(bNFF)
	mc.FalseAlarms = newStat(fa)
	return mc
}
