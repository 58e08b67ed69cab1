package diagnosis

import (
	"decos/internal/core"
	"decos/internal/sim"
)

// DeriveAction is the Fig. 11 maintenance-action derivation shared by
// every diagnostic arm — the onboard DECOS pipeline, the OBD baseline
// and the fleet-side warranty audit: the action for a diagnosed class,
// given whether the OEM has released a software update for the subject.
// The merged job-inherent verdict consults the update flag too (an
// acknowledged update implies the software subclass); the possibly
// refined class is returned alongside the action.
func DeriveAction(class core.FaultClass, updateAvailable bool) (core.FaultClass, core.MaintenanceAction) {
	if class == core.JobInherent && updateAvailable {
		class = core.JobInherentSoftware
	}
	return class, core.ActionFor(class, updateAvailable)
}

// Adviser is the third stage of the staged assessment pipeline — the
// paper's maintenance-action derivation phase (Fig. 11): it turns the
// classifier's findings into standing verdicts with derived maintenance
// actions and maintains every FRU's trust trajectory (Fig. 9).
type Adviser struct {
	reg  *Registry
	opts Options

	// Per-FRU state, indexed by FRUIndex; hasCurrent marks the FRUs
	// with a standing verdict in current.
	trust      []float64
	trustHist  [][]TrustPoint
	current    []Verdict
	hasCurrent []bool
	emitted    []Verdict
	epoch      int64

	verdictHooks []func(Verdict)
}

// NewAdviser creates an adviser over the given registry; every FRU
// starts fully trusted.
func NewAdviser(reg *Registry, opts Options) *Adviser {
	n := reg.Len()
	ad := &Adviser{
		reg:        reg,
		opts:       opts.withDefaults(),
		trust:      make([]float64, n),
		trustHist:  make([][]TrustPoint, n),
		current:    make([]Verdict, n),
		hasCurrent: make([]bool, n),
	}
	ad.reset()
	return ad
}

// reset returns the adviser to its just-built state: every FRU fully
// trusted with an empty trajectory (its storage kept), no standing
// verdict, no emission, no epoch.
func (ad *Adviser) reset() {
	for i := range ad.trust {
		ad.trust[i] = 1
		ad.trustHist[i] = ad.trustHist[i][:0]
	}
	clear(ad.current)
	clear(ad.hasCurrent)
	ad.emitted, ad.epoch = nil, 0
}

// OnVerdict registers the adviser stage's attach point, invoked at every
// verdict emission (first classification or class/pattern change). With
// no hook registered the emission path pays nothing beyond a nil-slice
// range.
func (ad *Adviser) OnVerdict(f func(Verdict)) { ad.verdictHooks = append(ad.verdictHooks, f) }

// Advance closes one assessment epoch: it derives verdicts and actions
// from the classifier's findings (ascending subject order) and updates
// every FRU's trust level from the epoch's evidence.
func (ad *Adviser) Advance(ctx *EvalContext, findings []Finding, now sim.Time) {
	ad.epoch++
	for _, f := range findings {
		fru := ad.reg.FRU(f.Subject)
		update := false
		if ad.opts.UpdateAvailable != nil {
			update = ad.opts.UpdateAvailable(fru)
		}
		_, action := DeriveAction(f.Class, update)
		v := Verdict{
			Epoch:       ad.epoch,
			At:          now,
			Subject:     f.Subject,
			FRU:         fru,
			Class:       f.Class,
			Persistence: f.Persistence,
			Pattern:     f.Pattern,
			Confidence:  f.Confidence,
			Action:      action,
		}
		prev, had := ad.current[f.Subject], ad.hasCurrent[f.Subject]
		ad.current[f.Subject], ad.hasCurrent[f.Subject] = v, true
		if !had || prev.Class != v.Class || prev.Pattern != v.Pattern {
			ad.emitted = append(ad.emitted, v)
			for _, h := range ad.verdictHooks {
				h(v)
			}
		}
	}
	ad.updateTrust(ctx, now)
}

func (ad *Adviser) updateTrust(ctx *EvalContext, now sim.Time) {
	granule := ctx.Granule
	epochFrom := granule - ad.opts.EpochRounds + 1
	if epochFrom < 0 {
		epochFrom = 0
	}
	for i := 0; i < ad.reg.Len(); i++ {
		f := FRUIndex(i)
		var weight int
		if ad.reg.IsHardware(f) {
			weight = ctx.Hist.Count(f, epochFrom, granule, frameLevel)
		} else {
			weight = ctx.Hist.Count(f, epochFrom, granule, trustValueKinds)
		}
		t := ad.trust[f]
		if weight == 0 {
			t += 0.1 * (1 - t)
		} else {
			sev := float64(weight) / 20
			if sev > 1 {
				sev = 1
			}
			impact := 0.35
			if cls, ok := ctx.Decided[f]; ok && cls == core.ComponentExternal {
				impact = 0.12 // external hits erode confidence only briefly
			}
			t -= impact * sev
		}
		t = float64(core.TrustLevel(t).Clamp())
		ad.trust[f] = t
		ad.trustHist[f] = append(ad.trustHist[f], TrustPoint{At: now, Granule: granule, Trust: core.TrustLevel(t)})
	}
}

// Trust returns the FRU's current trust level.
func (ad *Adviser) Trust(f FRUIndex) core.TrustLevel {
	return core.TrustLevel(ad.trust[f])
}

// TrustHistory returns a copy of the FRU's trust trajectory, one point
// per epoch. The copy is the caller's: it stays as it is when the
// adviser runs on or is reset.
func (ad *Adviser) TrustHistory(f FRUIndex) []TrustPoint {
	return append([]TrustPoint(nil), ad.trustHist[f]...)
}

// Current returns the FRU's standing verdict.
func (ad *Adviser) Current(f FRUIndex) (Verdict, bool) {
	return ad.current[f], ad.hasCurrent[f]
}

// CurrentAll returns the standing verdict of every FRU that has one, in
// subject order.
func (ad *Adviser) CurrentAll() []Verdict {
	var out []Verdict
	for i, v := range ad.current {
		if ad.hasCurrent[i] {
			out = append(out, v)
		}
	}
	return out
}

// Emitted returns every verdict emission (first classifications and class
// changes) in order. Later emissions append to it, but a reset starts a
// new list, so a slice taken before the reset keeps its contents.
func (ad *Adviser) Emitted() []Verdict { return ad.emitted }

// Epoch returns the number of completed assessment epochs.
func (ad *Adviser) Epoch() int64 { return ad.epoch }

// Forget drops the FRU's standing verdict and restores full trust (after
// a repair action).
func (ad *Adviser) Forget(f FRUIndex) {
	ad.current[f], ad.hasCurrent[f] = Verdict{}, false
	ad.trust[f] = 1
}
