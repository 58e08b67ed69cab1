package experiments

import (
	"context"
	"fmt"
	"math"

	"decos/internal/bayes"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/scenario"
)

// e16Seeds mirrors the E12 robustness sweep; the seed arithmetic below
// must stay identical to E12Robustness so the two experiments describe
// the same 40 fault realizations.
const e16Seeds = 5

// e16HardwareKinds is the hardware half of the injector taxonomy — the
// kinds whose ground-truth culprit is a component FRU, so "did the
// classifier attribute the fault to the right piece of hardware" is
// well-defined.
var e16HardwareKinds = []scenario.FaultKind{
	scenario.KindEMI, scenario.KindSEU,
	scenario.KindConnectorTx, scenario.KindConnectorRx,
	scenario.KindWearout, scenario.KindIntermittent,
	scenario.KindPermanent, scenario.KindQuartz,
}

// e16Verdict is one classifier's answer for one FRU in one run.
type e16Verdict struct {
	class core.FaultClass
	conf  float64
	found bool
}

// e16Collector accumulates attribution and calibration statistics for
// one classifier across the sweep.
type e16Collector struct {
	name string
	// hits / runs: hardware-attribution recall — the culprit component
	// carries a standing verdict whose class matches the ground truth.
	hits, runs int
	// tp / fp: accused hardware FRUs that are / are not culprits, for
	// precision.
	tp, fp int
	// perSeed[s] counts hits of seed replicate s (the CI resamples the
	// sweep by replicate).
	perSeed []int
	// calibration bins over verdict confidence: [0,.2) .. [.8,1].
	calN       [5]int
	calCorrect [5]int
	calConf    [5]float64
}

func newE16Collector(name string) *e16Collector {
	return &e16Collector{name: name, perSeed: make([]int, e16Seeds)}
}

// observe folds one run into the collector. verdictOf answers for any
// hardware component; culprits is the set of ground-truth component
// ids; subject/class are E12's scoring target and truth.
func (c *e16Collector) observe(s int, verdictOf func(comp int) e16Verdict,
	nComp int, culprits map[int]bool, subject int, truth core.FaultClass) {
	c.runs++
	if v := verdictOf(subject); v.found && truth.Matches(v.class) {
		c.hits++
		c.perSeed[s]++
	}
	for comp := 0; comp < nComp; comp++ {
		v := verdictOf(comp)
		if !v.found {
			continue
		}
		correct := culprits[comp] && truth.Matches(v.class)
		if culprits[comp] {
			c.tp++
		} else {
			c.fp++
		}
		bin := int(v.conf * 5)
		if bin > 4 {
			bin = 4
		}
		if bin < 0 {
			bin = 0
		}
		c.calN[bin]++
		c.calConf[bin] += v.conf
		if correct {
			c.calCorrect[bin]++
		}
	}
}

func (c *e16Collector) recall() float64 {
	if c.runs == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.runs)
}

func (c *e16Collector) precision() float64 {
	if c.tp+c.fp == 0 {
		return 1 // nothing accused, nothing wrong
	}
	return float64(c.tp) / float64(c.tp+c.fp)
}

// recallCI95 is the half-width of the normal-approximation 95 % CI over
// the per-replicate recalls (each seed replicate spans every kind).
func (c *e16Collector) recallCI95() float64 {
	n := len(c.perSeed)
	if n < 2 {
		return 0
	}
	kindsPerSeed := float64(c.runs) / float64(n)
	mean := 0.0
	vals := make([]float64, n)
	for i, h := range c.perSeed {
		vals[i] = float64(h) / kindsPerSeed
		mean += vals[i]
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return 1.96 * sd / math.Sqrt(float64(n))
}

// ece is the expected calibration error: the bin-weighted mean absolute
// gap between stated confidence and empirical accuracy.
func (c *e16Collector) ece() float64 {
	total := 0
	for _, n := range c.calN {
		total += n
	}
	if total == 0 {
		return 0
	}
	e := 0.0
	for b := range c.calN {
		if c.calN[b] == 0 {
			continue
		}
		acc := float64(c.calCorrect[b]) / float64(c.calN[b])
		conf := c.calConf[b] / float64(c.calN[b])
		e += float64(c.calN[b]) / float64(total) * math.Abs(conf-acc)
	}
	return e
}

// E16BayesCalibration compares the three classification stages — the
// DECOS rule engine, the OBD threshold baseline and the Bayesian
// posterior stage — over the hardware half of the E12 robustness sweep
// (8 fault kinds × 5 seeds, identical seed arithmetic): hardware-
// attribution recall with a 95 % CI over seed replicates, accusation
// precision, and a confidence-calibration curve with its expected
// calibration error. The DECOS and OBD answers come from one shared run
// per realization (the OBD advisor is always attached alongside); the
// Bayesian stage runs the same realization with the pipeline swapped.
func E16BayesCalibration(seed uint64) *Result {
	const nComp = 4 // Fig. 10 components; 3 hosts the diagnostic DAS
	collectors := map[string]*e16Collector{
		"decos": newE16Collector("decos"),
		"obd":   newE16Collector("obd"),
		"bayes": newE16Collector("bayes"),
	}

	for _, kind := range e16HardwareKinds {
		for s := 0; s < e16Seeds; s++ {
			runSeed := seed + uint64(kind)*6151 + uint64(s)*389

			sys, act := faultedFig10(runSeed, diagnosis.Options{}, kind)
			sys.Cluster.RunRounds(context.Background(), 3000)

			culprits := map[int]bool{}
			if act.Culprit.Component >= 0 && act.Culprit.IsHardware() {
				culprits[act.Culprit.Component] = true
			}
			for _, a := range act.Affected {
				if a.IsHardware() && a.Component >= 0 {
					culprits[a.Component] = true
				}
			}
			subject := act.Culprit
			if subject.Component < 0 && len(act.Affected) > 0 {
				subject = act.Affected[0]
			}

			collectors["decos"].observe(s, func(comp int) e16Verdict {
				v, ok := sys.Diag.VerdictOf(core.HardwareFRU(comp))
				return e16Verdict{class: v.Class, conf: v.Confidence, found: ok}
			}, nComp, culprits, subject.Component, act.Class)
			collectors["obd"].observe(s, func(comp int) e16Verdict {
				// The baseline emits hard DTC-derived advice without a
				// confidence; score it as fully confident.
				_, class, ok := sys.OBD.Advise(core.HardwareFRU(comp))
				return e16Verdict{class: class, conf: 1, found: ok}
			}, nComp, culprits, subject.Component, act.Class)

			sysB, actB := faultedFig10(runSeed, diagnosis.Options{}, kind,
				engine.WithClassifier(bayes.New()))
			sysB.Cluster.RunRounds(context.Background(), 3000)
			if actB.Class != act.Class {
				panic("E16: bayes pass drew a different realization")
			}
			collectors["bayes"].observe(s, func(comp int) e16Verdict {
				v, ok := sysB.Diag.VerdictOf(core.HardwareFRU(comp))
				return e16Verdict{class: v.Class, conf: v.Confidence, found: ok}
			}, nComp, culprits, subject.Component, act.Class)
		}
	}

	t := newTable("classifier", "recall", "ci95", "precision", "ece")
	metrics := map[string]float64{}
	for _, name := range []string{"decos", "obd", "bayes"} {
		c := collectors[name]
		t.row(name, pct(c.recall()), fmt.Sprintf("±%.3f", c.recallCI95()),
			pct(c.precision()), fmt.Sprintf("%.3f", c.ece()))
		metrics["recall_"+name] = c.recall()
		metrics["recall_ci95_"+name] = c.recallCI95()
		metrics["precision_"+name] = c.precision()
		metrics["ece_"+name] = c.ece()
	}

	cal := newTable("classifier", "conf bin", "n", "mean conf", "accuracy")
	for _, name := range []string{"decos", "obd", "bayes"} {
		c := collectors[name]
		for b := 0; b < 5; b++ {
			if c.calN[b] == 0 {
				continue
			}
			lo, hi := float64(b)*0.2, float64(b+1)*0.2
			cal.row(name, fmt.Sprintf("[%.1f,%.1f)", lo, hi), c.calN[b],
				fmt.Sprintf("%.3f", c.calConf[b]/float64(c.calN[b])),
				pct(float64(c.calCorrect[b])/float64(c.calN[b])))
		}
	}

	return &Result{
		ID: "E16",
		Figure: fmt.Sprintf("extension — calibration and attribution of DECOS vs OBD vs Bayes over %d kinds × %d seeds",
			len(e16HardwareKinds), e16Seeds),
		Table:   t.String() + "\n" + cal.String(),
		Metrics: metrics,
	}
}
