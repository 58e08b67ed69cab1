// Package bayes implements the probabilistic third classifier of the
// diagnostic pipeline (DESIGN §14): a naive-Bayes belief stage that
// maintains, per FRU, a posterior distribution over candidate fault
// hypotheses — healthy, isolated transient, EMI-correlated burst,
// connector/contact fault, wearout, internal intermittent, internal
// permanent for hardware FRUs; healthy, job-inherent, transducer and
// configuration fault for software FRUs — and updates it every
// assessment epoch with the same α-count and symptom-history evidence
// the DECOS fault-model classifier consumes, but folded in as full
// Bernoulli likelihoods instead of hard ONA thresholds: every epoch
// each hypothesis is charged for the signature features it predicts
// but that are absent, as well as credited for the ones present.
//
// The stage emits ranked verdicts with calibrated confidence: the
// finding's Confidence is the posterior mass of the winning fault
// class (hypotheses mapping to the same maintenance class pool their
// mass), an explicit abstention withholds any verdict while the
// evidence is insufficient (posterior below MinConfidence or within
// MinMargin of the runner-up), and two mechanisms bound the damage a
// lying sensor can do to the belief state: every epoch's log-likelihood
// steps are measured relative to the epoch's best-explaining hypothesis
// and clamped so no hypothesis falls more than StepClamp nats behind
// the leader in a single epoch, and the log posterior is geometrically
// forgotten toward the prior so corrupted evidence decays instead of
// accumulating without bound.
//
// The classifier is a drop-in diagnosis.Classifier (selected with
// engine.WithClassifier, a pack manifest's `classifier = "bayes"` or
// the -classifier CLI flags) and a ckpt.Snapshotter: the posterior
// state round-trips through DCS-C engine checkpoints bit-identically,
// so a restored bayes run continues exactly where the checkpoint left
// off.
package bayes

import (
	"math"

	"decos/internal/core"
	"decos/internal/diagnosis"
)

// ln and exp alias the math intrinsics; both are deterministic for a
// given platform, which is all the bit-identity contract needs (the
// posterior is platform-local state, serialized as exact IEEE bits).
func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// Hypothesis enumerates the candidate per-FRU fault hypotheses the
// posterior ranges over. Hardware FRUs use hypHealthy..hypPermanent,
// software FRUs hypHealthy plus hypJobInherent..hypConfig.
type Hypothesis uint8

const (
	hypHealthy Hypothesis = iota
	hypTransient
	hypEMI
	hypConnector
	hypWearout
	hypIntermittent
	hypPermanent
	hypJobInherent
	hypSensor
	hypConfig
	numHyp
)

// String returns the hypothesis name used in finding patterns.
func (h Hypothesis) String() string {
	switch h {
	case hypHealthy:
		return "healthy"
	case hypTransient:
		return "transient"
	case hypEMI:
		return "emi"
	case hypConnector:
		return "connector"
	case hypWearout:
		return "wearout"
	case hypIntermittent:
		return "intermittent"
	case hypPermanent:
		return "permanent"
	case hypJobInherent:
		return "job-inherent"
	case hypSensor:
		return "sensor"
	case hypConfig:
		return "config"
	default:
		return "?"
	}
}

// class maps a hypothesis to its maintenance-oriented fault class
// (ClassUnknown for healthy).
func (h Hypothesis) class() core.FaultClass {
	switch h {
	case hypTransient, hypEMI:
		return core.ComponentExternal
	case hypConnector:
		return core.ComponentBorderline
	case hypWearout, hypIntermittent, hypPermanent:
		return core.ComponentInternal
	case hypJobInherent:
		return core.JobInherent
	case hypSensor:
		return core.JobInherentSensor
	case hypConfig:
		return core.JobBorderline
	default:
		return core.ClassUnknown
	}
}

// persistence maps a hypothesis to the fault-persistence dimension.
func (h Hypothesis) persistence() core.Persistence {
	switch h {
	case hypTransient, hypEMI:
		return core.Transient
	case hypConnector, hypWearout, hypIntermittent, hypSensor:
		return core.Intermittent
	default:
		return core.Permanent
	}
}

// Options tunes the belief stage. Zero values take the defaults of
// DefaultOptions.
type Options struct {
	// PriorHealthy is the prior probability mass of the healthy
	// hypothesis; the remainder is split uniformly over the fault
	// hypotheses of the FRU's kind.
	PriorHealthy float64
	// Forget is the per-epoch retention factor of the (centred) log
	// posterior: 1 never forgets, smaller values decay old evidence
	// toward the prior — the graceful-degradation backstop against a
	// corrupted evidence stream.
	Forget float64
	// StepClamp bounds one epoch's relative log-likelihood demotion per
	// hypothesis (in nats): steps are measured against the epoch's
	// best-explaining hypothesis, so no single epoch — however loud a
	// stuck sensor screams — can drop any hypothesis more than StepClamp
	// nats behind the leader.
	StepClamp float64
	// MinConfidence is the posterior class mass below which the stage
	// abstains ("insufficient evidence": no finding at all).
	MinConfidence float64
	// MinMargin is the minimum lead over the runner-up fault class;
	// closer races abstain too.
	MinMargin float64
}

// DefaultOptions returns the tuning used throughout the experiments.
func DefaultOptions() Options {
	return Options{
		PriorHealthy:  0.85,
		Forget:        0.94,
		StepClamp:     6.0,
		MinConfidence: 0.5,
		MinMargin:     0.08,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.PriorHealthy <= 0 || o.PriorHealthy >= 1 {
		o.PriorHealthy = d.PriorHealthy
	}
	if o.Forget <= 0 || o.Forget > 1 {
		o.Forget = d.Forget
	}
	if o.StepClamp <= 0 {
		o.StepClamp = d.StepClamp
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = d.MinConfidence
	}
	if o.MinMargin <= 0 {
		o.MinMargin = d.MinMargin
	}
	return o
}

// Classifier is the Bayesian classification stage. Construct with New;
// the zero value is not usable. The classifier is stateful (one belief
// state per engine) — every engine needs its own instance.
type Classifier struct {
	opts Options

	// logp is the centred log posterior, nFRU rows × numHyp columns.
	// Centred means max-subtracted after every update: the stored
	// numbers are scale-free, which keeps the float trajectory (and
	// therefore the checkpoint bytes) identical across snapshot/restore.
	logp   []float64
	nFRU   int
	epochs int64
	// abstained counts epochs×FRUs where evidence was present but the
	// posterior did not clear the emission bar.
	abstained uint64

	findings []diagnosis.Finding
	ranked   []diagnosis.RankedVerdict
	// hwActive marks hardware FRUs with frame-level symptoms this
	// epoch — the spatial-correlation pass reads it.
	hwActive []bool
	// swSick marks software FRUs with value violations this epoch.
	swSick []bool
	// soleObs[f] is the single observer reporting every window symptom
	// of hardware FRU f (-1 when none or several); accuses[o] counts
	// the subjects observer o sole-accuses. Both feed the framed/accuser
	// features of the receive-side connector hypothesis and are
	// recomputed from the symptom history every epoch (not belief
	// state, so they stay out of the checkpoint).
	soleObs []int32
	accuses []int32
	// framed marks hardware FRUs whose window evidence is explained away
	// by a mass-accusing sole observer this epoch.
	framed []bool
	// accused marks hardware FRUs carrying a standing verdict with a
	// non-external class. When the posterior later decays back to a
	// healthy MAP (evidence stopped and Forget drained the lead), the
	// stage downgrades the verdict to an external transient — the
	// Bayesian analogue of the rule engine's isolated-transient
	// residual, so environmental stress that subsides does not leave a
	// stale removal recommendation. Belief state: checkpointed.
	accused []bool
}

// New returns a Bayesian classifier with default tuning. The belief
// state sizes itself to the registry on the first Classify (or on
// Restore).
func New() *Classifier { return NewWithOptions(Options{}) }

// NewWithOptions returns a classifier with the given tuning.
func NewWithOptions(opts Options) *Classifier {
	return &Classifier{opts: opts.withDefaults()}
}

// Reset returns the classifier to its just-constructed state — no belief
// state, no epoch — keeping its storage: the next Classify sizes the
// posterior again, reusing the slices.
func (c *Classifier) Reset() {
	c.nFRU, c.epochs, c.abstained = 0, 0, 0
	c.logp, c.accused = c.logp[:0], c.accused[:0]
}

// Name identifies the stage in verdict provenance and CLI selection.
func (c *Classifier) Name() string { return "bayes" }

// Options returns the effective (defaulted) tuning.
func (c *Classifier) Options() Options { return c.opts }

// Epochs returns the number of assessment epochs folded into the
// posterior.
func (c *Classifier) Epochs() int64 { return c.epochs }

// Abstentions returns how many FRU-epochs had symptomatic evidence but
// withheld a verdict as insufficient.
func (c *Classifier) Abstentions() uint64 { return c.abstained }

// hypRange returns the hypothesis set of a FRU kind: hardware FRUs
// range over the component hypotheses, software FRUs over the job
// hypotheses. hypHealthy belongs to both.
func hypRange(hardware bool) []Hypothesis {
	if hardware {
		return hwHyps
	}
	return swHyps
}

var (
	hwHyps = []Hypothesis{hypHealthy, hypTransient, hypEMI, hypConnector, hypWearout, hypIntermittent, hypPermanent}
	swHyps = []Hypothesis{hypHealthy, hypJobInherent, hypSensor, hypConfig}
)

// Symptom filters shared by every epoch (allocated once; KindIn returns
// a closure).
var (
	fltFrame     = diagnosis.KindIn(diagnosis.SymOmission, diagnosis.SymCorruption, diagnosis.SymTiming)
	fltOmission  = diagnosis.KindIn(diagnosis.SymOmission)
	fltTiming    = diagnosis.KindIn(diagnosis.SymTiming)
	fltCorrupt   = diagnosis.KindIn(diagnosis.SymCorruption)
	fltOmOrTim   = diagnosis.KindIn(diagnosis.SymOmission, diagnosis.SymTiming)
	fltValueViol = diagnosis.KindIn(diagnosis.SymValue, diagnosis.SymStale, diagnosis.SymStuck, diagnosis.SymReplica)
	fltStuck     = diagnosis.KindIn(diagnosis.SymStuck)
	fltDrift     = diagnosis.KindIn(diagnosis.SymDeviation)
	fltOverflow  = diagnosis.KindIn(diagnosis.SymOverflow)
)

// Hardware evidence features, in likelihood-table column order.
const (
	fhAny      = iota // any frame-level symptom this epoch
	fhOm              // omissions this epoch
	fhTim             // timing violations this epoch
	fhCor             // coding violations this epoch
	fhMulti           // multi-bit corruption (large value deviation)
	fhBurst           // spatially correlated neighbour also symptomatic
	fhDuty            // near-continuous loss over the permanent window
	fhAlpha           // α-count past threshold (recurrence at this FRU)
	fhRise            // episode rate rising across the window (wearout)
	fhMultiObs        // seen by ≥2 observers
	fhRecur           // ≥ MinRecurrentGranules distinct symptomatic granules
	fhAccuser         // sole-accuses ≥2 subjects over the window — the
	// signature of its own receive-side connector chatter
	numHWFeat
)

// hwLik[h][f] is P(feature f observed | hypothesis h) — the Bernoulli
// likelihood tables of DESIGN §14. Rows index hwHyps order. Under the
// full Bernoulli update a hypothesis pays ln(1−p) for every signature
// feature that is absent, so the discriminating columns are the ones
// with a high p in exactly one row: fhBurst for EMI, fhRise for
// wearout, fhDuty for permanent, fhAccuser for the receive-side
// connector.
var hwLik = map[Hypothesis][numHWFeat]float64{
	hypHealthy:      {0.04, 0.02, 0.02, 0.02, 0.01, 0.02, 0.004, 0.01, 0.01, 0.02, 0.01, 0.02},
	hypTransient:    {0.90, 0.25, 0.25, 0.80, 0.35, 0.06, 0.01, 0.06, 0.05, 0.60, 0.10, 0.02},
	hypEMI:          {0.95, 0.35, 0.30, 0.90, 0.75, 0.90, 0.02, 0.25, 0.08, 0.70, 0.35, 0.02},
	hypConnector:    {0.80, 0.85, 0.25, 0.15, 0.05, 0.05, 0.15, 0.85, 0.15, 0.60, 0.75, 0.35},
	hypWearout:      {0.90, 0.55, 0.35, 0.50, 0.30, 0.05, 0.10, 0.60, 0.85, 0.55, 0.70, 0.02},
	hypIntermittent: {0.90, 0.45, 0.50, 0.60, 0.30, 0.05, 0.05, 0.75, 0.15, 0.55, 0.80, 0.02},
	hypPermanent:    {0.97, 0.97, 0.25, 0.05, 0.02, 0.05, 0.90, 0.80, 0.08, 0.80, 0.90, 0.02},
}

// Software evidence features.
const (
	fsVal       = iota // value-domain violations this epoch
	fsStuck            // stuck-at signature
	fsDrift            // in-spec drift toward the boundary
	fsOver             // queue overflows beyond OverflowMin over the window
	fsAlpha            // software α-count past threshold
	fsHostDirty        // hosting component's own α-count is loaded
	fsSiblings         // sibling jobs on the host are sick too
	numSWFeat
)

var swLik = map[Hypothesis][numSWFeat]float64{
	hypHealthy:     {0.03, 0.01, 0.02, 0.01, 0.01, 0.35, 0.35},
	hypJobInherent: {0.90, 0.15, 0.30, 0.05, 0.80, 0.08, 0.08},
	hypSensor:      {0.85, 0.60, 0.60, 0.02, 0.70, 0.08, 0.08},
	hypConfig:      {0.45, 0.05, 0.05, 0.95, 0.30, 0.10, 0.10},
}

// ensureInit sizes the belief state to the registry.
func (c *Classifier) ensureInit(reg *diagnosis.Registry) {
	if c.nFRU == reg.Len() && len(c.logp) > 0 {
		return
	}
	c.nFRU = reg.Len()
	c.logp = resize(c.logp, c.nFRU*int(numHyp))
	c.hwActive = resize(c.hwActive, c.nFRU)
	c.swSick = resize(c.swSick, c.nFRU)
	c.soleObs = resize(c.soleObs, c.nFRU)
	c.accuses = resize(c.accuses, c.nFRU)
	c.framed = resize(c.framed, c.nFRU)
	c.accused = resize(c.accused, c.nFRU)
	for i := 0; i < c.nFRU; i++ {
		c.resetRow(diagnosis.FRUIndex(i), reg.IsHardware(diagnosis.FRUIndex(i)))
	}
}

// resize returns s resized to n zero elements, reusing its storage when
// it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetRow reinstates the prior for one FRU.
func (c *Classifier) resetRow(f diagnosis.FRUIndex, hardware bool) {
	row := c.row(f)
	for i := range row {
		row[i] = negInf
	}
	hyps := hypRange(hardware)
	faulty := (1 - c.opts.PriorHealthy) / float64(len(hyps)-1)
	for _, h := range hyps {
		p := faulty
		if h == hypHealthy {
			p = c.opts.PriorHealthy
		}
		row[h] = ln(p)
	}
	c.centre(row, hyps)
}

// negInf is the log probability of hypotheses outside the FRU's kind.
// A large negative constant rather than math.Inf keeps every arithmetic
// path finite (Inf−Inf would poison the centring subtraction).
const negInf = -1e300

func (c *Classifier) row(f diagnosis.FRUIndex) []float64 {
	i := int(f) * int(numHyp)
	return c.logp[i : i+int(numHyp)]
}

// centre subtracts the row maximum so the stored log posterior is
// scale-free (numerically stable and canonical for checkpointing).
func (c *Classifier) centre(row []float64, hyps []Hypothesis) {
	max := row[hyps[0]]
	for _, h := range hyps[1:] {
		if row[h] > max {
			max = row[h]
		}
	}
	for _, h := range hyps {
		row[h] -= max
	}
}

// posterior materializes the normalized posterior of one FRU into out
// (len numHyp), returning the normalizer.
func (c *Classifier) posterior(f diagnosis.FRUIndex, hardware bool, out []float64) {
	row := c.row(f)
	hyps := hypRange(hardware)
	var sum float64
	for i := range out {
		out[i] = 0
	}
	for _, h := range hyps {
		out[h] = exp(row[h])
		sum += out[h]
	}
	for _, h := range hyps {
		out[h] /= sum
	}
}

// Posterior returns the FRU's current posterior over its hypothesis
// set as (hypothesis name, probability) pairs in fixed hypothesis
// order. For inspection and tests; allocates.
func (c *Classifier) Posterior(f diagnosis.FRUIndex, hardware bool) map[string]float64 {
	if int(f) >= c.nFRU {
		return nil
	}
	var post [numHyp]float64
	c.posterior(f, hardware, post[:])
	out := make(map[string]float64, len(hypRange(hardware)))
	for _, h := range hypRange(hardware) {
		out[h.String()] = post[h]
	}
	return out
}

// Classify implements diagnosis.Classifier: one belief update per
// assessment epoch, followed by MAP emission with abstention. Findings
// are returned in ascending subject order (hardware FRUs precede
// software FRUs in registry order) and concluded classes are recorded
// in ctx.Decided. The returned slice is owned by the classifier and
// valid until the next call.
func (c *Classifier) Classify(ctx *diagnosis.EvalContext) []diagnosis.Finding {
	c.ensureInit(ctx.Reg)
	c.epochs++
	g := ctx.Granule
	epochFrom := g - ctx.Opts.EpochRounds + 1
	if epochFrom < 0 {
		epochFrom = 0
	}
	winFrom := g - ctx.Window + 1
	if winFrom < 0 {
		winFrom = 0
	}

	// Pass 1: per-epoch activity marks, feeding the spatial-correlation
	// and sibling features, plus the window-scale accusation graph — who
	// is the sole observer behind each subject's symptoms — that exposes
	// a receive-side connector fault (the accuser reports omissions
	// about everyone while everyone else sees clean frames).
	hw := ctx.Reg.HardwareFRUs()
	for i := range c.accuses {
		c.accuses[i] = 0
	}
	for _, f := range hw {
		c.hwActive[f] = ctx.Hist.Count(f, epochFrom, g, fltFrame) > 0
		// The accusation graph mirrors ConnectorRxONA: omission symptoms
		// only, a single stray omission is not connector evidence.
		c.soleObs[f] = -1
		if obs := ctx.Hist.Observers(f, winFrom, g, fltOmission); len(obs) == 1 &&
			ctx.Hist.Count(f, winFrom, g, fltOmission) >= 2 {
			c.soleObs[f] = int32(obs[0])
		}
	}
	for _, f := range hw {
		if o := c.soleObs[f]; o >= 0 && int(o) < c.nFRU {
			c.accuses[o]++
		}
	}
	sw := ctx.Reg.SoftwareFRUs()
	for _, f := range sw {
		c.swSick[f] = ctx.Hist.Count(f, epochFrom, g, fltValueViol) > 0
	}

	// The recurrence counters are owned by the active classification
	// stage (the DECOS classifier steps them inside its own Classify),
	// so this stage must advance them itself or the α-evidence features
	// would never fire. Framed subjects do not accumulate recurrence —
	// the same gating the DECOS pipeline applies to explained symptoms.
	for _, f := range hw {
		c.framed[f] = c.soleObs[f] >= 0 && c.accuses[c.soleObs[f]] >= 2 && c.accuses[f] < 2
		ctx.Alpha.Step(f, c.hwActive[f] && !c.framed[f], 1)
	}
	for _, f := range sw {
		ctx.SW.Step(f, c.swSick[f], 1)
	}

	c.findings = c.findings[:0]
	for _, f := range hw {
		c.updateHardware(ctx, f, epochFrom, winFrom, g)
		c.emit(ctx, f, true)
	}
	for _, f := range sw {
		c.updateSoftware(ctx, f, epochFrom, winFrom, g)
		c.emit(ctx, f, false)
	}
	return c.findings
}

// updateHardware folds one epoch of frame-level evidence into the
// component FRU's posterior.
func (c *Classifier) updateHardware(ctx *diagnosis.EvalContext, f diagnosis.FRUIndex, epochFrom, winFrom, g int64) {
	om := ctx.Hist.Count(f, epochFrom, g, fltOmission)
	tim := ctx.Hist.Count(f, epochFrom, g, fltTiming)
	cor := ctx.Hist.Count(f, epochFrom, g, fltCorrupt)

	var feat [numHWFeat]bool
	feat[fhAny] = om+tim+cor > 0
	feat[fhOm] = om > 0
	feat[fhTim] = tim > 0
	feat[fhCor] = cor > 0
	feat[fhMulti] = ctx.Hist.MaxDeviation(f, epochFrom, g, fltCorrupt) >= ctx.Opts.MultiBitThreshold
	feat[fhAlpha] = ctx.Alpha.Exceeded(f)

	if feat[fhAny] {
		// Spatial correlation: another component within the proximity
		// radius is symptomatic in the same epoch.
		for _, o := range ctx.Reg.HardwareFRUs() {
			if o != f && c.hwActive[o] && ctx.Reg.Distance(f, o) <= ctx.Opts.ProximityRadius {
				feat[fhBurst] = true
				break
			}
		}
		feat[fhMultiObs] = len(ctx.Hist.Observers(f, epochFrom, g, fltFrame)) >= 2
	}

	// Window-scale features: duty cycle over the permanent window and
	// the episode-rate trend over the full lookback.
	permFrom := g - ctx.Opts.PermanentWindow + 1
	if permFrom < 0 {
		permFrom = 0
	}
	span := g - permFrom + 1
	loss := ctx.Hist.ActiveGranuleCount(f, permFrom, g, fltOmOrTim)
	feat[fhDuty] = float64(loss) >= ctx.Opts.PermanentDuty*float64(span)

	// Episodes: distinct symptomatic granules over the window, counted
	// per half (a granule falls in exactly one half).
	mid := winFrom + (g-winFrom)/2
	early := ctx.Hist.ActiveGranuleCount(f, winFrom, mid, fltFrame)
	late := ctx.Hist.ActiveGranuleCount(f, mid+1, g, fltFrame)
	feat[fhRecur] = early+late >= ctx.Opts.MinRecurrentGranules
	feat[fhRise] = late >= 4 && early >= 1 && float64(late) >= ctx.Opts.RiseFactor*float64(early)

	// Accusation-graph explain-away: when every window omission about
	// this subject comes from one observer who sole-accuses several
	// subjects, the symptoms are re-attributed to that observer's own
	// receiver — the framed subject's evidence is discarded wholesale
	// (its epoch looks quiet), and the accuser inherits the omissions
	// it reported plus the accuser signature.
	if c.framed[f] {
		feat = [numHWFeat]bool{}
	}
	if c.accuses[f] >= 2 {
		feat[fhAny], feat[fhOm], feat[fhRecur], feat[fhAccuser] = true, true, true, true
	}

	// Quiet epochs carry no update at all: the fault hypotheses model
	// evidence while a fault manifests, so their posterior decays toward
	// the prior through forgetting instead of being driven down — a
	// one-shot transient must stay explainable after it ends.
	quiet := true
	for _, on := range feat {
		if on {
			quiet = false
			break
		}
	}
	if !quiet {
		c.applyStep(f, hwHyps, func(h Hypothesis) float64 { return logLikHW(h, &feat) })
	}
	c.forgetRow(f, true)
}

// updateSoftware folds one epoch of port-level evidence into the job
// FRU's posterior.
func (c *Classifier) updateSoftware(ctx *diagnosis.EvalContext, f diagnosis.FRUIndex, epochFrom, winFrom, g int64) {
	var feat [numSWFeat]bool
	feat[fsVal] = c.swSick[f]
	feat[fsStuck] = ctx.Hist.Count(f, epochFrom, g, fltStuck) > 0
	feat[fsDrift] = ctx.Hist.Count(f, epochFrom, g, fltDrift) > 0
	feat[fsOver] = ctx.Hist.Count(f, winFrom, g, fltOverflow) >= ctx.Opts.OverflowMin
	feat[fsAlpha] = ctx.SW.Exceeded(f)

	host := ctx.Reg.HostOf(f)
	feat[fsHostDirty] = ctx.Alpha.Score(host) > ctx.Opts.AlphaThreshold/2
	for _, sib := range ctx.Reg.JobsOn(host) {
		if sib != f && c.swSick[sib] {
			feat[fsSiblings] = true
			break
		}
	}

	quiet := true
	for _, on := range feat {
		if on {
			quiet = false
			break
		}
	}
	if !quiet {
		c.applyStep(f, swHyps, func(h Hypothesis) float64 { return logLikSW(h, &feat) })
	}
	c.forgetRow(f, false)
}

// applyStep folds one epoch's log-likelihoods into the FRU's posterior.
// Steps are taken relative to the epoch's best-explaining hypothesis
// and clamped below at −StepClamp: the stored row is centred anyway, so
// only differences matter, and the relative clamp bounds how far any
// hypothesis can fall behind the leader per epoch without flattening
// the ordering of the plausible ones (an absolute clamp would floor
// every strongly-surprised hypothesis to the same value).
func (c *Classifier) applyStep(f diagnosis.FRUIndex, hyps []Hypothesis, ll func(Hypothesis) float64) {
	var step [numHyp]float64
	best := negInf
	for _, h := range hyps {
		step[h] = ll(h)
		if step[h] > best {
			best = step[h]
		}
	}
	row := c.row(f)
	for _, h := range hyps {
		s := step[h] - best
		if s < -c.opts.StepClamp {
			s = -c.opts.StepClamp
		}
		row[h] += s
	}
}

// logLikHW is the full Bernoulli epoch log-likelihood of the observed
// hardware feature vector under hypothesis h: present features
// contribute ln(p), absent ones ln(1−p), so a hypothesis is penalized
// for the signature features it predicts but that did not appear —
// without this term, any high-likelihood row would explain every
// symptomatic epoch.
func logLikHW(h Hypothesis, feat *[numHWFeat]bool) float64 {
	lik := hwLik[h]
	var ll float64
	for i, on := range feat {
		if on {
			ll += ln(lik[i])
		} else {
			ll += ln(1 - lik[i])
		}
	}
	return ll
}

func logLikSW(h Hypothesis, feat *[numSWFeat]bool) float64 {
	lik := swLik[h]
	var ll float64
	for i, on := range feat {
		if on {
			ll += ln(lik[i])
		} else {
			ll += ln(1 - lik[i])
		}
	}
	return ll
}

// forgetRow decays the centred log posterior toward the prior — the
// second half of the graceful-degradation contract.
func (c *Classifier) forgetRow(f diagnosis.FRUIndex, hardware bool) {
	row := c.row(f)
	hyps := hypRange(hardware)
	faulty := (1 - c.opts.PriorHealthy) / float64(len(hyps)-1)
	for _, h := range hyps {
		prior := faulty
		if h == hypHealthy {
			prior = c.opts.PriorHealthy
		}
		row[h] = c.opts.Forget*row[h] + (1-c.opts.Forget)*ln(prior)
	}
	c.centre(row, hyps)
}

// emit applies the MAP-with-abstention rule for one FRU and appends a
// finding when the evidence clears the bar.
func (c *Classifier) emit(ctx *diagnosis.EvalContext, f diagnosis.FRUIndex, hardware bool) {
	var post [numHyp]float64
	c.posterior(f, hardware, post[:])

	// Pool hypothesis mass by maintenance class; remember the dominant
	// hypothesis inside each class for pattern and persistence.
	healthy := post[hypHealthy]
	bestClass, runnerUp := 0.0, 0.0
	var bestHyp Hypothesis
	var bestHypMass float64
	var bestClassOf core.FaultClass
	for _, cl := range classPools(hardware) {
		mass := 0.0
		var top Hypothesis
		var topMass float64
		for _, h := range hypRange(hardware) {
			if h.class() != cl {
				continue
			}
			mass += post[h]
			if post[h] > topMass {
				top, topMass = h, post[h]
			}
		}
		if mass > bestClass {
			runnerUp = bestClass
			bestClass, bestClassOf = mass, cl
			bestHyp, bestHypMass = top, topMass
		} else if mass > runnerUp {
			runnerUp = mass
		}
	}
	_ = bestHypMass

	symptomatic := c.hwActive[f] || c.swSick[f]
	if bestClass <= healthy {
		// Healthy is the MAP class. If this FRU still carries an
		// actionable verdict from an earlier accusation, the evidence
		// behind it has stopped recurring and Forget has drained the
		// posterior lead — downgrade to an external transient (no
		// maintenance action), exactly as the rule engine's
		// isolated-transient residual reclassifies a subsided stress.
		if hardware && c.accused[f] && !symptomatic {
			c.findings = append(c.findings, diagnosis.Finding{
				Subject:     f,
				Class:       core.ComponentExternal,
				Persistence: core.Transient,
				Pattern:     "bayes-recovered",
				Confidence:  healthy,
			})
			ctx.Decided[f] = core.ComponentExternal
			c.accused[f] = false
		}
		return
	}
	if bestClass < c.opts.MinConfidence || bestClass-maxf(runnerUp, healthy) < c.opts.MinMargin {
		if symptomatic {
			c.abstained++ // insufficient evidence: explicit abstention
		}
		return
	}
	c.findings = append(c.findings, diagnosis.Finding{
		Subject:     f,
		Class:       bestClassOf,
		Persistence: bestHyp.persistence(),
		Pattern:     "bayes-" + bestHyp.String(),
		Confidence:  bestClass,
	})
	ctx.Decided[f] = bestClassOf
	if hardware {
		c.accused[f] = bestClassOf != core.ComponentExternal
	}
}

// classPools lists the fault classes a FRU kind's hypotheses map to.
func classPools(hardware bool) []core.FaultClass {
	if hardware {
		return hwClasses
	}
	return swClasses
}

var (
	hwClasses = []core.FaultClass{core.ComponentExternal, core.ComponentBorderline, core.ComponentInternal}
	swClasses = []core.FaultClass{core.JobInherent, core.JobInherentSensor, core.JobBorderline}
)

// Ranked implements diagnosis.Ranker: the FRU's fault classes ordered
// by posterior mass, healthy included as ClassUnknown. The returned
// slice is owned by the classifier and valid until the next call.
func (c *Classifier) Ranked(subject diagnosis.FRUIndex) []diagnosis.RankedVerdict {
	if int(subject) >= c.nFRU {
		return nil
	}
	// The belief state does not retain the registry; hardware-ness is
	// recovered from the stored row (software rows hold negInf-derived
	// zeros for hardware hypotheses and vice versa).
	hardware := c.row(subject)[hypTransient] > negInf/2
	var post [numHyp]float64
	c.posterior(subject, hardware, post[:])

	c.ranked = c.ranked[:0]
	c.ranked = append(c.ranked, diagnosis.RankedVerdict{
		Class: core.ClassUnknown, Pattern: "bayes-healthy", Confidence: post[hypHealthy],
	})
	for _, cl := range classPools(hardware) {
		mass := 0.0
		var top Hypothesis
		var topMass float64
		for _, h := range hypRange(hardware) {
			if h.class() != cl {
				continue
			}
			mass += post[h]
			if post[h] > topMass {
				top, topMass = h, post[h]
			}
		}
		c.ranked = append(c.ranked, diagnosis.RankedVerdict{
			Class: cl, Pattern: "bayes-" + top.String(), Confidence: mass,
		})
	}
	// Insertion sort, descending confidence (stable for equal masses:
	// fixed class order above).
	for i := 1; i < len(c.ranked); i++ {
		for j := i; j > 0 && c.ranked[j].Confidence > c.ranked[j-1].Confidence; j-- {
			c.ranked[j], c.ranked[j-1] = c.ranked[j-1], c.ranked[j]
		}
	}
	return c.ranked
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
