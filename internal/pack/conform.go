package pack

import (
	"context"
	"fmt"
	"strings"
	"time"

	"decos/internal/core"
	"decos/internal/engine"
	"decos/internal/maintenance"
)

// Classifier names the runner scores every pack against.
const (
	ClassifierDECOS = "decos"
	ClassifierOBD   = "obd"
	ClassifierBayes = "bayes"
)

// Classifiers lists every classification stage the conformance runner
// scores, in report order.
var Classifiers = []string{ClassifierDECOS, ClassifierOBD, ClassifierBayes}

// Check is one scored assertion of a conformance run.
type Check struct {
	Desc   string `json:"desc"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// ClassifierScore is one classifier's scored run of a pack.
type ClassifierScore struct {
	Classifier string  `json:"classifier"`
	Checks     []Check `json:"checks"`
	Satisfied  int     `json:"satisfied"`
	Total      int     `json:"total"`
	Score      float64 `json:"score"`
	MinScore   float64 `json:"min_score"`
	Pass       bool    `json:"pass"`
	// WallClockMS is the wall-clock cost of this classifier's run leg
	// (build + simulate + score). Campaign legs that share one fleet run
	// report the shared run's cost.
	WallClockMS float64 `json:"wall_clock_ms"`
}

// PackResult is one pack's conformance outcome across every classifier.
type PackResult struct {
	Name        string            `json:"name"`
	Source      string            `json:"source,omitempty"`
	Seed        uint64            `json:"seed"`
	Rounds      int64             `json:"rounds"`
	Campaign    bool              `json:"campaign,omitempty"`
	Classifiers []ClassifierScore `json:"classifiers,omitempty"`
	Error       string            `json:"error,omitempty"`
	Pass        bool              `json:"pass"`
}

// Report is the machine-readable conformance report over a pack library.
type Report struct {
	Version int          `json:"version"`
	Packs   []PackResult `json:"packs"`
	Total   int          `json:"total"`
	Passed  int          `json:"passed"`
	Failed  int          `json:"failed"`
}

// Add appends a pack result and updates the totals.
func (r *Report) Add(pr *PackResult) {
	r.Packs = append(r.Packs, *pr)
	r.Total++
	if pr.Pass {
		r.Passed++
	} else {
		r.Failed++
	}
}

// Format renders the report as a human-readable table (the JSON form is
// the machine interface).
func (r *Report) Format() string {
	var b strings.Builder
	for _, p := range r.Packs {
		status := "PASS"
		if !p.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-4s %-32s", status, p.Name)
		if p.Error != "" {
			fmt.Fprintf(&b, " error: %s\n", p.Error)
			continue
		}
		for _, cs := range p.Classifiers {
			marker := ""
			if !cs.Pass {
				marker = "!"
			}
			fmt.Fprintf(&b, "  %s %d/%d (min %.2f, %.0fms)%s", cs.Classifier, cs.Satisfied, cs.Total, cs.MinScore, cs.WallClockMS, marker)
		}
		b.WriteString("\n")
		for _, cs := range p.Classifiers {
			for _, c := range cs.Checks {
				if !c.Pass && !cs.Pass {
					fmt.Fprintf(&b, "       %s: FAIL %s — %s\n", cs.Classifier, c.Desc, c.Detail)
				}
			}
		}
	}
	fmt.Fprintf(&b, "packs: %d  passed: %d  failed: %d\n", r.Total, r.Passed, r.Failed)
	return b.String()
}

// ConformSingle runs a single-vehicle pack against every classifier and
// scores its expectations. Campaign packs are scored by the scenario
// layer (which owns the fleet campaign driver); calling this on one
// returns an error result.
func ConformSingle(ctx context.Context, m *Manifest) *PackResult {
	pr := &PackResult{Name: m.Name, Source: m.Source, Seed: m.Seed, Rounds: m.Rounds}
	if m.Campaign != nil {
		pr.Error = "campaign pack: score through the scenario conformance runner"
		return pr
	}
	pr.Pass = true
	for _, cls := range Classifiers {
		cs, err := conformClassifier(ctx, m, cls)
		if err != nil {
			pr.Error = err.Error()
			pr.Pass = false
			return pr
		}
		pr.Classifiers = append(pr.Classifiers, *cs)
		if !cs.Pass {
			pr.Pass = false
		}
	}
	return pr
}

// conformClassifier runs the pack once under the named classifier and
// scores every expectation scoped to it. The manifest's own classifier
// selection is bypassed: conformance always pins the stage explicitly.
func conformClassifier(ctx context.Context, m *Manifest, cls string) (*ClassifierScore, error) {
	start := time.Now()
	mc := *m
	mc.Classifier = ""
	eng, err := mc.Engine(ClassifierOptions(cls)...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cls, err)
	}
	if err := eng.Cluster.RunRounds(ctx, m.Rounds); err != nil {
		return nil, fmt.Errorf("%s: run: %w", cls, err)
	}
	cs := &ClassifierScore{Classifier: cls, MinScore: m.minScoreFor(cls)}
	e := &m.Expect

	if e.Healthy {
		verdicts := eng.Diag.Assessor.CurrentAll()
		check := Check{Desc: "healthy: no standing verdicts", Pass: len(verdicts) == 0}
		if !check.Pass {
			var names []string
			for _, v := range verdicts {
				names = append(names, fmt.Sprintf("%s=%s", v.FRU, v.Class))
			}
			check.Detail = strings.Join(names, ", ")
		}
		cs.Checks = append(cs.Checks, check)
	}

	for _, ve := range e.Verdicts {
		if ve.Classifier != "" && ve.Classifier != cls {
			continue
		}
		cs.Checks = append(cs.Checks, checkVerdict(eng, ve))
	}

	if e.MaxFalseAlarms >= 0 {
		cs.Checks = append(cs.Checks, checkFalseAlarms(eng, e.MaxFalseAlarms))
	}

	cs.finish()
	cs.WallClockMS = float64(time.Since(start).Microseconds()) / 1e3
	return cs, nil
}

// checkVerdict scores one expected verdict against the engine's
// diagnoser (whatever classifier is installed in its pipeline).
func checkVerdict(eng *engine.Engine, ve VerdictExpect) Check {
	desc := fmt.Sprintf("verdict %s is %s", ve.FRU, ve.Class)
	if ve.Action != "" {
		desc += " → " + ve.Action
	}
	fru, err := core.ParseFRU(ve.FRU)
	if err != nil {
		return Check{Desc: desc, Detail: err.Error()}
	}
	want, err := core.ParseFaultClass(ve.Class)
	if err != nil {
		return Check{Desc: desc, Detail: err.Error()}
	}
	action, got, found := eng.Diag.Advise(fru)
	if !found {
		return Check{Desc: desc, Detail: "no standing verdict"}
	}
	if !want.Matches(got) {
		return Check{Desc: desc, Detail: fmt.Sprintf("diagnosed %s", got)}
	}
	if ve.Action != "" {
		wantAction, err := core.ParseMaintenanceAction(ve.Action)
		if err != nil {
			return Check{Desc: desc, Detail: err.Error()}
		}
		if action != wantAction {
			return Check{Desc: desc, Detail: fmt.Sprintf("advised %s", action)}
		}
	}
	return Check{Desc: desc, Pass: true}
}

// checkFalseAlarms bounds removal advice on hardware FRUs that were
// never a culprit, through the shared arm-audit rule.
func checkFalseAlarms(eng *engine.Engine, max int) Check {
	culprit := map[int]bool{}
	for _, a := range eng.Injector.Ledger() {
		if a.Culprit.IsHardware() && a.Culprit.Component >= 0 {
			culprit[a.Culprit.Component] = true
		}
	}
	var audit maintenance.ArmAudit
	for _, c := range eng.Cluster.Components() {
		if culprit[int(c.ID)] {
			continue
		}
		if action, _, ok := eng.Diag.Advise(core.HardwareFRU(int(c.ID))); ok {
			audit.HealthyAdvice(action)
		}
	}
	check := Check{
		Desc: fmt.Sprintf("false alarms ≤ %d", max),
		Pass: audit.FalseAlarms <= max,
	}
	if !check.Pass {
		check.Detail = fmt.Sprintf("%d non-culprit removals advised", audit.FalseAlarms)
	}
	return check
}

// minScoreFor returns the pass threshold for a classifier: packs assert
// DECOS behaviour by default (min 1.0) and score the OBD and Bayesian
// alternatives report-only (min 0) unless the pack raises them.
func (m *Manifest) minScoreFor(cls string) float64 {
	switch cls {
	case ClassifierOBD:
		return m.Expect.MinScoreOBD
	case ClassifierBayes:
		return m.Expect.MinScoreBayes
	}
	return m.Expect.MinScore
}

// finish computes the score and pass verdict from the check list. A
// pack with no checks for a classifier scores 1.0 vacuously — shipped
// packs are required (by the conformance contract test) to carry at
// least one expectation.
func (cs *ClassifierScore) finish() {
	cs.Total = len(cs.Checks)
	for _, c := range cs.Checks {
		if c.Pass {
			cs.Satisfied++
		}
	}
	if cs.Total == 0 {
		cs.Score = 1
	} else {
		cs.Score = float64(cs.Satisfied) / float64(cs.Total)
	}
	cs.Pass = cs.Score >= cs.MinScore
}

// CampaignLeg is one classifier's audited fleet outcome, handed to
// ScoreCampaign by the scenario campaign driver (pack cannot import it).
type CampaignLeg struct {
	Report      *maintenance.Report
	FalseAlarms int
	WallClockMS float64
}

// ScoreCampaign scores a campaign pack from the audited fleet reports
// of every classifier: legs holds one entry per Classifiers name.
func ScoreCampaign(m *Manifest, legs map[string]CampaignLeg) *PackResult {
	pr := &PackResult{
		Name: m.Name, Source: m.Source, Seed: m.Seed, Rounds: m.Rounds,
		Campaign: true, Pass: true,
	}
	decos := legs[ClassifierDECOS].Report
	obd := legs[ClassifierOBD].Report
	for _, cls := range Classifiers {
		leg := legs[cls]
		rep, falseAlarms := leg.Report, leg.FalseAlarms
		cs := &ClassifierScore{Classifier: cls, MinScore: m.minScoreFor(cls), WallClockMS: leg.WallClockMS}
		e := &m.Expect
		if e.MinClassAccuracy > 0 {
			acc := rep.ClassAccuracy()
			cs.Checks = append(cs.Checks, Check{
				Desc:   fmt.Sprintf("class accuracy ≥ %.2f", e.MinClassAccuracy),
				Pass:   acc >= e.MinClassAccuracy,
				Detail: fmt.Sprintf("measured %.3f", acc),
			})
		}
		if e.MaxNFFRatio >= 0 {
			nff := rep.NFFRatio()
			cs.Checks = append(cs.Checks, Check{
				Desc:   fmt.Sprintf("NFF ratio ≤ %.2f", e.MaxNFFRatio),
				Pass:   nff <= e.MaxNFFRatio,
				Detail: fmt.Sprintf("measured %.3f", nff),
			})
		}
		if e.MaxFalseAlarms >= 0 {
			cs.Checks = append(cs.Checks, Check{
				Desc:   fmt.Sprintf("false alarms ≤ %d", e.MaxFalseAlarms),
				Pass:   falseAlarms <= e.MaxFalseAlarms,
				Detail: fmt.Sprintf("measured %d", falseAlarms),
			})
		}
		if e.DECOSBeatsOBD {
			// The architecture claim: strictly better fault classification
			// without paying for it in no-fault-found removals.
			cs.Checks = append(cs.Checks, Check{
				Desc: "DECOS outperforms OBD (class accuracy up, NFF no worse)",
				Pass: decos.ClassAccuracy() > obd.ClassAccuracy() &&
					decos.NFFRatio() <= obd.NFFRatio(),
				Detail: fmt.Sprintf("accuracy %.3f vs %.3f, NFF %.3f vs %.3f",
					decos.ClassAccuracy(), obd.ClassAccuracy(),
					decos.NFFRatio(), obd.NFFRatio()),
			})
		}
		cs.finish()
		pr.Classifiers = append(pr.Classifiers, *cs)
		if !cs.Pass {
			pr.Pass = false
		}
	}
	return pr
}
