package experiments

import (
	"context"
	"fmt"

	"decos/internal/diagnosis"
	"decos/internal/scenario"
)

// E12Robustness measures classification stability across random seeds: the
// per-kind accuracy over several independent realizations of every fault
// kind, isolating how much of the headline accuracy depends on lucky draws
// (injection timing, fault parameters, traffic interleavings).
func E12Robustness(seed uint64) *Result {
	const seeds = 5
	kinds := scenario.AllKinds()
	t := newTable("fault kind", "correct", "of", "accuracy")
	metrics := map[string]float64{}
	totalCorrect, total := 0, 0
	minAcc := 1.0

	for _, kind := range kinds {
		correct := 0
		for s := 0; s < seeds; s++ {
			sys, act := faultedFig10(seed+uint64(kind)*6151+uint64(s)*389, diagnosis.Options{}, kind)
			sys.Cluster.RunRounds(context.Background(), 3000)
			subject := act.Culprit
			if subject.Component < 0 && len(act.Affected) > 0 {
				subject = act.Affected[0]
			}
			if v, ok := sys.Diag.VerdictOf(subject); ok && act.Class.Matches(v.Class) {
				correct++
			}
		}
		acc := float64(correct) / seeds
		if acc < minAcc {
			minAcc = acc
		}
		totalCorrect += correct
		total += seeds
		t.row(kind.String(), correct, seeds, pct(acc))
		metrics["acc_"+kind.String()] = acc
	}
	metrics["overall"] = float64(totalCorrect) / float64(total)
	metrics["worst_kind"] = minAcc

	return &Result{
		ID:      "E12",
		Figure:  fmt.Sprintf("extension — classification robustness over %d seeds per kind", seeds),
		Table:   t.String(),
		Metrics: metrics,
	}
}
