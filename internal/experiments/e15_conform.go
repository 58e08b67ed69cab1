package experiments

import (
	"context"
	"fmt"

	"decos/internal/pack"
	"decos/internal/scenario"
)

// E15PackConformance scores every shipped scenario pack against both
// the DECOS classifier and the OBD baseline — the pack library as an
// executable compatibility suite covering the fault model end to end:
// environmental stress (EMI, thermal cycling, vibration, power sags,
// connector chatter), hardware and software FRU faults, and fleet
// campaigns. A pack that stops passing means a verdict changed. The
// packs pin their own seeds (expected verdicts are calibrated against
// them), so the experiment seed is deliberately unused and the result
// is reproducible from the pack files alone.
func E15PackConformance(seed uint64) *Result {
	_ = seed
	res := &Result{ID: "E15", Figure: "scenario-pack conformance (DECOS vs OBD vs Bayes)", Metrics: map[string]float64{}}
	rep, err := RunPackConformance(context.Background())
	if err != nil {
		res.Table = fmt.Sprintf("pack conformance unavailable: %v\n", err)
		return res
	}

	t := newTable("pack", "kind", "decos", "obd", "bayes", "status")
	for _, p := range rep.Packs {
		kind := "vehicle"
		if p.Campaign {
			kind = "campaign"
		}
		status := "PASS"
		if !p.Pass {
			status = "FAIL"
		}
		scores := map[string]string{
			pack.ClassifierDECOS: "-", pack.ClassifierOBD: "-", pack.ClassifierBayes: "-",
		}
		for _, cs := range p.Classifiers {
			scores[cs.Classifier] = fmt.Sprintf("%d/%d", cs.Satisfied, cs.Total)
		}
		if p.Error != "" {
			status = "ERROR"
		}
		t.row(p.Name, kind, scores[pack.ClassifierDECOS], scores[pack.ClassifierOBD],
			scores[pack.ClassifierBayes], status)
	}
	res.Table = t.String()
	res.Metrics["packs"] = float64(rep.Total)
	res.Metrics["passed"] = float64(rep.Passed)
	res.Metrics["failed"] = float64(rep.Failed)
	return res
}

// RunPackConformance loads every manifest of the repository's packs/
// directory (pack.LoadDir) and scores it through the scenario
// conformance runner. Shared by E15 and the conformance contract test.
func RunPackConformance(ctx context.Context) (*pack.Report, error) {
	_, ms, err := pack.LoadDir("")
	if err != nil {
		return nil, err
	}
	return scenario.ConformAll(ctx, ms), nil
}
