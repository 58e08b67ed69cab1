package scenario

import (
	"context"
	"fmt"
	"slices"
	"time"

	"decos/internal/pack"
)

// ParseKind maps a campaign-mix kind name from a scenario pack onto the
// FaultKind enum, by its position in pack.CampaignKinds.
func ParseKind(name string) (FaultKind, bool) {
	if i := slices.Index(pack.CampaignKinds, name); i >= 0 {
		return FaultKind(i), true
	}
	return 0, false
}

// CampaignFromManifest maps a validated campaign pack onto the fleet
// campaign driver. The pack's seed, rounds and classifier carry over; an empty mix falls back to the paper's default field
// distribution, exactly like a nil Campaign.Mix.
func CampaignFromManifest(m *pack.Manifest) Campaign {
	cs := m.Campaign
	if cs == nil {
		panic("scenario: CampaignFromManifest on a single-vehicle pack")
	}
	c := Campaign{
		Vehicles:         cs.Vehicles,
		Rounds:           m.Rounds,
		Seed:             m.Seed,
		FaultFreeShare:   cs.FaultFreeShare,
		FaultsPerVehicle: cs.FaultsPerVehicle,
		Classifier:       m.Classifier,
	}
	if len(cs.Mix) > 0 {
		mix := make(map[FaultKind]float64, len(cs.Mix))
		for name, w := range cs.Mix {
			k, ok := ParseKind(name)
			if !ok {
				// Validation pins mix keys to pack.CampaignKinds.
				panic(fmt.Sprintf("scenario: campaign mix kind %q (validate first)", name))
			}
			mix[k] = w
		}
		c.Mix = mix
	}
	return c
}

// Conform scores one pack against every classifier: single-vehicle
// packs run through the pack conformance runner; campaign packs run the
// fleet twice — one pass with the DECOS pipeline (which audits the OBD
// baseline alongside, yielding two legs for one run cost) and one pass
// with the Bayesian pipeline. The pack's own classifier selection is
// ignored: conformance always pins the stage per leg.
func Conform(ctx context.Context, m *pack.Manifest) *pack.PackResult {
	if m.Campaign == nil {
		return pack.ConformSingle(ctx, m)
	}
	base := CampaignFromManifest(m)
	base.Classifier = ""
	start := time.Now()
	res := base.RunContext(ctx)
	baseMS := float64(time.Since(start).Microseconds()) / 1e3

	bc := CampaignFromManifest(m)
	bc.Classifier = pack.ClassifierBayes
	start = time.Now()
	bres := bc.RunContext(ctx)
	bayesMS := float64(time.Since(start).Microseconds()) / 1e3

	pr := pack.ScoreCampaign(m, map[string]pack.CampaignLeg{
		pack.ClassifierDECOS: {Report: res.DECOS, FalseAlarms: res.DECOSFalseAlarms, WallClockMS: baseMS},
		pack.ClassifierOBD:   {Report: res.OBD, FalseAlarms: res.OBDFalseAlarms, WallClockMS: baseMS},
		pack.ClassifierBayes: {Report: bres.DECOS, FalseAlarms: bres.DECOSFalseAlarms, WallClockMS: bayesMS},
	})
	if res.Partial || bres.Partial {
		pr.Error = "campaign cancelled before all vehicles completed"
		pr.Pass = false
	}
	return pr
}

// ConformAll scores every pack in sequence into one report.
func ConformAll(ctx context.Context, ms []*pack.Manifest) *pack.Report {
	rep := &pack.Report{Version: pack.Version}
	for _, m := range ms {
		rep.Add(Conform(ctx, m))
	}
	return rep
}
