package diagnosis

import (
	"decos/internal/core"
)

// An ONA (Out-of-Norm Assertion) is a deterministic predicate on the
// distributed state that encodes a fault pattern in the value, time and
// space dimensions (paper Section V-A). When all symptoms of its pattern
// are present, it yields findings: per-FRU classifications with a named
// pattern and confidence.
type ONA interface {
	Name() string
	Evaluate(ctx *EvalContext) []Finding
}

// Finding is one ONA conclusion about one FRU.
type Finding struct {
	Subject     FRUIndex
	Class       core.FaultClass
	Persistence core.Persistence
	Pattern     string
	Confidence  float64
	// Explains lists further FRUs whose symptoms this finding accounts
	// for; the assessor suppresses later verdicts for them this epoch.
	Explains []FRUIndex
}

// EvalContext is the state handed to ONAs at each assessment epoch.
type EvalContext struct {
	Hist  *History
	Reg   *Registry
	Alpha *AlphaCount // hardware FRUs, frame-level evidence
	SW    *AlphaCount // software FRUs, value-domain evidence
	// Granule is the newest action-lattice index.
	Granule int64
	// Window is the lookback horizon in granules.
	Window int64
	Opts   Options
	// Explained holds FRUs whose window symptoms are already accounted
	// for by a higher-priority finding.
	Explained map[FRUIndex]bool
	// Decided holds the class already concluded for a FRU this epoch
	// (populated as the suite evaluates, in priority order).
	Decided map[FRUIndex]core.FaultClass

	// Scratch reused by the ONAs across epochs (the assessor keeps one
	// context alive); valid only within a single Evaluate call.
	granArena   []int64
	hitFRUs     []FRUIndex
	hitOffs     [][2]int
	obsScratch  []FRUIndex
	rxPairs     []rxPair
	sickScratch []FRUIndex
}

// rxPair records a subject whose omissions were seen by exactly one
// observer (ConnectorRxONA evidence).
type rxPair struct {
	observer, subject FRUIndex
}

func (c *EvalContext) windowStart() int64 {
	s := c.Granule - c.Window + 1
	if s < 0 {
		s = 0
	}
	return s
}

// observerStats returns the number of distinct observers reporting matching
// symptoms for the subject and, when there is exactly one, that observer
// (NoFRU otherwise).
func (c *EvalContext) observerStats(subject FRUIndex, from, to int64, f Filter) (int, FRUIndex) {
	seen := c.obsScratch[:0]
	l := c.Hist.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule < from || (f != nil && !f(s)) {
				continue
			}
			dup := false
			for _, o := range seen {
				if o == s.Observer {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, s.Observer)
			}
		}
	}
	c.obsScratch = seen[:0]
	if len(seen) == 1 {
		return 1, seen[0]
	}
	return len(seen), NoFRU
}

var frameLevel = KindIn(SymOmission, SymCorruption, SymTiming)

// valueViolation matches hard value/time-domain violations of a job's port
// spec. SymDeviation is deliberately excluded: a value drifting toward the
// spec boundary is a wearout corroborator, not evidence of a faulty job.
var valueViolation = KindIn(SymValue, SymStale, SymStuck, SymReplica)

// Filters used inside per-FRU loops, hoisted to package scope: KindIn
// builds a closure, and the ONAs would otherwise rebuild one per FRU per
// epoch on the assessment hot path.
var (
	omissionOnly     = KindIn(SymOmission)
	timingOnly       = KindIn(SymTiming)
	omissionOrTiming = KindIn(SymOmission, SymTiming)
	corruptionOnly   = KindIn(SymCorruption)
	devOrValue       = KindIn(SymDeviation, SymValue)
	hardValue        = KindIn(SymValue, SymStale, SymStuck)
	internalOnly     = KindIn(SymInternal)
	stuckOnly        = KindIn(SymStuck)
	valueOnly        = KindIn(SymValue)
	trustValueKinds  = KindIn(SymValue, SymStale, SymStuck, SymReplica, SymOverflow)
)

// ---------------------------------------------------------------------------

// MassiveTransientONA encodes the Fig. 8 massive-transient pattern: frame
// corruptions with multiple flipped bits on two or more spatially proximate
// components within a small time delta imply an external disturbance (EMI
// burst). The affected components require no maintenance action.
type MassiveTransientONA struct{}

// Name implements ONA.
func (MassiveTransientONA) Name() string { return "massive-transient" }

// Evaluate implements ONA.
func (o MassiveTransientONA) Evaluate(ctx *EvalContext) []Finding {
	from := ctx.windowStart()
	multiBit := func(s Symptom) bool {
		return s.Kind == SymCorruption && float64(s.Deviation) >= ctx.Opts.MultiBitThreshold
	}
	// Per-FRU granule lists live in one shared arena addressed by offsets
	// (the arena may reallocate while growing; subslices would go stale).
	arena := ctx.granArena[:0]
	frus := ctx.hitFRUs[:0]
	offs := ctx.hitOffs[:0]
	for _, hw := range ctx.Reg.HardwareFRUs() {
		start := len(arena)
		arena = ctx.Hist.appendActiveGranules(arena, hw, from, ctx.Granule, multiBit)
		if len(arena) > start {
			frus = append(frus, hw)
			offs = append(offs, [2]int{start, len(arena)})
		}
	}
	ctx.granArena, ctx.hitFRUs, ctx.hitOffs = arena, frus, offs
	if len(frus) < 2 {
		return nil
	}
	// Pairwise: simultaneous (within BurstGranules) and proximate.
	affected := map[FRUIndex]bool{}
	for i := 0; i < len(frus); i++ {
		for j := i + 1; j < len(frus); j++ {
			if ctx.Reg.Distance(frus[i], frus[j]) > ctx.Opts.ProximityRadius {
				continue
			}
			gi := arena[offs[i][0]:offs[i][1]]
			gj := arena[offs[j][0]:offs[j][1]]
			if granulesOverlap(gi, gj, ctx.Opts.BurstGranules) {
				affected[frus[i]] = true
				affected[frus[j]] = true
			}
		}
	}
	var out []Finding
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if affected[hw] {
			out = append(out, Finding{
				Subject:     hw,
				Class:       core.ComponentExternal,
				Persistence: core.Transient,
				Pattern:     "massive-transient",
				Confidence:  0.9,
			})
		}
	}
	return out
}

// granulesOverlap reports whether two sorted granule lists contain entries
// within delta of each other.
func granulesOverlap(a, b []int64, delta int64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d <= delta {
			return true
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return false
}

// ---------------------------------------------------------------------------

// PermanentONA detects continuous service loss of a component: omission or
// timing failures in nearly every recent granule, confirmed by at least two
// independent observers. Timing-dominated evidence indicates loss of clock
// synchronization (defective quartz); omission-dominated evidence a dead
// component. Both are component-internal and permanent.
type PermanentONA struct{}

// Name implements ONA.
func (PermanentONA) Name() string { return "permanent" }

// Evaluate implements ONA.
func (o PermanentONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	p := ctx.Opts.PermanentWindow
	from := ctx.Granule - p + 1
	if from < 0 {
		from = 0
	}
	span := ctx.Granule - from + 1
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] {
			continue
		}
		omit := ctx.Hist.ActiveGranuleCount(hw, from, ctx.Granule, omissionOnly)
		timing := ctx.Hist.ActiveGranuleCount(hw, from, ctx.Granule, timingOnly)
		n := omit
		pattern := "permanent-silence"
		if timing > omit {
			n = timing
			pattern = "sync-loss"
		}
		if float64(n) < ctx.Opts.PermanentDuty*float64(span) {
			continue
		}
		if obs, _ := ctx.observerStats(hw, from, ctx.Granule, omissionOrTiming); obs < 2 {
			continue
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentInternal,
			Persistence: core.Permanent,
			Pattern:     pattern,
			Confidence:  0.95,
			Explains:    ctx.Reg.JobsOn(hw),
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// WearoutONA encodes the Fig. 8 wearout pattern: transient failures of one
// component whose frequency increases as time progresses, optionally
// corroborated by increasing value deviation of the component's outputs.
// Wearout is a component-internal fault: the indicator for condition-based
// replacement (Section III-E).
type WearoutONA struct{}

// Name implements ONA.
func (WearoutONA) Name() string { return "wearout" }

// Evaluate implements ONA.
func (o WearoutONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	mid := (from + ctx.Granule) / 2
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] {
			continue
		}
		early := ctx.Hist.ActiveGranuleCount(hw, from, mid, corruptionOnly)
		late := ctx.Hist.ActiveGranuleCount(hw, mid+1, ctx.Granule, corruptionOnly)
		if early < 1 || late < 4 || float64(late) < ctx.Opts.RiseFactor*float64(early) {
			continue
		}
		conf := 0.8
		// Deviation trend of hosted jobs corroborates.
		for _, sw := range ctx.Reg.JobsOn(hw) {
			dEarly := ctx.Hist.MaxDeviation(sw, from, mid, devOrValue)
			dLate := ctx.Hist.MaxDeviation(sw, mid+1, ctx.Granule, devOrValue)
			if dLate > dEarly && dLate > 0 {
				conf = 0.9
				break
			}
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentInternal,
			Persistence: core.Intermittent,
			Pattern:     "wearout",
			Confidence:  conf,
			Explains:    ctx.Reg.JobsOn(hw),
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// RecurrentInternalONA detects component-internal intermittent faults:
// transient corruption episodes that recur at the same location (α-count
// above threshold) without the spatial correlation of an external
// disturbance. Recurrence at one location distinguishes internal from
// external transients (Section V-C).
type RecurrentInternalONA struct{}

// Name implements ONA.
func (RecurrentInternalONA) Name() string { return "recurrent-internal" }

// Evaluate implements ONA.
func (o RecurrentInternalONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] || !ctx.Alpha.Exceeded(hw) {
			continue
		}
		if ctx.Hist.ActiveGranuleCount(hw, from, ctx.Granule, corruptionOnly) < ctx.Opts.MinRecurrentGranules {
			continue
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentInternal,
			Persistence: core.Intermittent,
			Pattern:     "recurrent-transient",
			Confidence:  0.8,
			Explains:    ctx.Reg.JobsOn(hw),
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// ConnectorRxONA detects inbound connector faults: one component (as
// observer) reports omissions from two or more other components while no
// second observer corroborates them — the asymmetry places the fault at the
// observer's own connector (borderline).
type ConnectorRxONA struct{}

// Name implements ONA.
func (ConnectorRxONA) Name() string { return "connector-rx" }

// Evaluate implements ONA.
func (o ConnectorRxONA) Evaluate(ctx *EvalContext) []Finding {
	from := ctx.windowStart()
	// For every subject, find the observers of its omissions. Pairs are
	// gathered into reusable scratch; a subject list is materialized only
	// when an actual finding emits (rare).
	pairs := ctx.rxPairs[:0]
	for _, hw := range ctx.Reg.HardwareFRUs() {
		n, sole := ctx.observerStats(hw, from, ctx.Granule, omissionOnly)
		if n != 1 {
			continue
		}
		// A single stray omission is not connector evidence.
		if ctx.Hist.Count(hw, from, ctx.Granule, omissionOnly) < 2 {
			continue
		}
		pairs = append(pairs, rxPair{observer: sole, subject: hw})
	}
	ctx.rxPairs = pairs
	var out []Finding
	for _, hw := range ctx.Reg.HardwareFRUs() {
		n := 0
		for _, p := range pairs {
			if p.observer == hw {
				n++
			}
		}
		if n < 2 || ctx.Explained[hw] {
			continue
		}
		subjects := make([]FRUIndex, 0, n)
		for _, p := range pairs {
			if p.observer == hw {
				subjects = append(subjects, p.subject)
			}
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentBorderline,
			Persistence: core.Intermittent,
			Pattern:     "connector-rx",
			Confidence:  0.75,
			Explains:    subjects,
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// ConnectorTxONA encodes the Fig. 8 connector pattern on the outbound path:
// message omissions of one component at arbitrary instants, corroborated by
// several observers, recurring (α-count) but far from permanent duty.
type ConnectorTxONA struct{}

// Name implements ONA.
func (ConnectorTxONA) Name() string { return "connector-tx" }

// Evaluate implements ONA.
func (o ConnectorTxONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	span := ctx.Granule - from + 1
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] || !ctx.Alpha.Exceeded(hw) {
			continue
		}
		gs := ctx.Hist.ActiveGranuleCount(hw, from, ctx.Granule, omissionOnly)
		if gs < ctx.Opts.MinRecurrentGranules {
			continue
		}
		if float64(gs) >= ctx.Opts.PermanentDuty*float64(span) {
			continue // continuous loss is the permanent pattern
		}
		if obs, _ := ctx.observerStats(hw, from, ctx.Granule, omissionOnly); obs < 2 {
			continue
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentBorderline,
			Persistence: core.Intermittent,
			Pattern:     "connector-tx",
			Confidence:  0.8,
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// IsolatedTransientONA is the residual hardware verdict: sporadic frame
// failures of one component that neither recur (α-count below threshold)
// nor correlate spatially are classified as component-external transients
// (SEU, isolated disturbance). No maintenance action follows — replacing
// the component would be a no-fault-found removal.
type IsolatedTransientONA struct{}

// Name implements ONA.
func (IsolatedTransientONA) Name() string { return "isolated-transient" }

// Evaluate implements ONA.
func (o IsolatedTransientONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] || ctx.Alpha.Exceeded(hw) {
			continue
		}
		if ctx.Hist.Count(hw, from, ctx.Granule, frameLevel) == 0 {
			continue
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentExternal,
			Persistence: core.Transient,
			Pattern:     "isolated-transient",
			Confidence:  0.6,
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// CorrelatedJobsONA implements the Fig. 10 judgment: value-domain failures
// of two or more jobs belonging to different DASs on the same component are
// very unlikely to be independent software faults — they evidence a
// component-internal hardware fault (the jobs' faults are job-external).
type CorrelatedJobsONA struct{}

// Name implements ONA.
func (CorrelatedJobsONA) Name() string { return "correlated-jobs" }

// Evaluate implements ONA.
func (o CorrelatedJobsONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	for _, hw := range ctx.Reg.HardwareFRUs() {
		if ctx.Explained[hw] {
			continue
		}
		sick := ctx.sickScratch[:0]
		firstDAS, multiDAS := "", false
		for _, sw := range ctx.Reg.JobsOn(hw) {
			if ctx.Hist.Count(sw, from, ctx.Granule, valueViolation) > 0 {
				if das := ctx.Reg.DASOf(sw); len(sick) == 0 {
					firstDAS = das
				} else if das != firstDAS {
					multiDAS = true
				}
				sick = append(sick, sw)
			}
		}
		ctx.sickScratch = sick[:0]
		if len(sick) < 2 || !multiDAS {
			continue
		}
		out = append(out, Finding{
			Subject:     hw,
			Class:       core.ComponentInternal,
			Persistence: core.Intermittent,
			Pattern:     "correlated-jobs",
			Confidence:  0.85,
			// Copy out of the scratch: the finding outlives this loop.
			Explains: append([]FRUIndex(nil), sick...),
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// ConfigurationONA detects job-borderline faults: port queue overflows
// while the involved producers conform to their value and time specs — the
// virtual-network configuration, not any job, is at fault.
type ConfigurationONA struct{}

// Name implements ONA.
func (ConfigurationONA) Name() string { return "configuration" }

// Evaluate implements ONA.
func (o ConfigurationONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	for _, sw := range ctx.Reg.SoftwareFRUs() {
		if ctx.Explained[sw] {
			continue
		}
		total := 0
		producersClean := true
		l := ctx.Hist.list(sw)
	scan:
		for k := 0; k < l.NumSegs(); k++ {
			for _, s := range l.Seg(k) {
				if s.Granule > ctx.Granule {
					break scan
				}
				if s.Granule < from || s.Kind != SymOverflow {
					continue
				}
				total += int(s.Count)
				if meta, ok := ctx.Reg.Channel(s.Channel); ok {
					if ctx.Hist.Count(meta.ProducerJob, from, ctx.Granule, hardValue) > 0 {
						producersClean = false
					}
				}
			}
		}
		if total < ctx.Opts.OverflowMin || !producersClean {
			continue
		}
		out = append(out, Finding{
			Subject:     sw,
			Class:       core.JobBorderline,
			Persistence: core.Permanent,
			Pattern:     "configuration",
			Confidence:  0.8,
		})
	}
	return out
}

// ---------------------------------------------------------------------------

// JobInherentONA attributes recurring value-domain failures confined to a
// single job — its siblings on the component healthy, the component's
// frame-level service healthy — to the job itself. With interface state
// alone, software and transducer faults are indistinguishable (Section
// III-D); a stuck-at plausibility violation on a sensor channel shifts the
// verdict to the transducer subclass.
type JobInherentONA struct{}

// Name implements ONA.
func (JobInherentONA) Name() string { return "job-inherent" }

// Evaluate implements ONA.
func (o JobInherentONA) Evaluate(ctx *EvalContext) []Finding {
	var out []Finding
	from := ctx.windowStart()
	for _, sw := range ctx.Reg.SoftwareFRUs() {
		if ctx.Explained[sw] || !ctx.SW.Exceeded(sw) {
			continue
		}
		if ctx.Hist.Count(sw, from, ctx.Granule, valueViolation) == 0 {
			continue
		}
		hw := ctx.Reg.HostOf(sw)
		if ctx.Alpha.Exceeded(hw) {
			continue // component-level evidence dominates
		}
		// A standing hardware verdict on the host (internal defect,
		// flaky outbound connector) explains the job's port symptoms; an
		// external verdict does not veto — and neither does the host
		// merely being the victim of some other FRU's fault (e.g. its
		// omissions explained by a receiver-side connector).
		if cls, decidedHW := ctx.Decided[hw]; decidedHW && cls != core.ComponentExternal {
			continue
		}
		siblingsClean := true
		for _, sib := range ctx.Reg.JobsOn(hw) {
			if sib == sw {
				continue
			}
			if ctx.Hist.Count(sib, from, ctx.Granule, valueViolation) > 0 {
				siblingsClean = false
				break
			}
		}
		if !siblingsClean {
			continue // correlated-jobs territory
		}
		// Subtype: with the job-internal-assertions extension enabled,
		// the job's own transducer plausibility checks decide exactly —
		// suspect transducer → sensor subclass, clean transducer with
		// failing outputs → software design fault. Without job-internal
		// information (the paper's base case, Section III-D) only a
		// frozen-but-plausible value (stuck without hard violations)
		// hints at the transducer; everything else stays the merged
		// verdict.
		class := core.JobInherent
		pattern := "job-inherent"
		confidence := 0.8
		if ctx.Opts.JobInternalAssertions {
			if ctx.Hist.Count(sw, from, ctx.Granule, internalOnly) > 0 {
				class = core.JobInherentSensor
				pattern = "job-inherent-sensor/internal"
			} else {
				class = core.JobInherentSoftware
				pattern = "job-inherent-software/internal"
			}
			confidence = 0.9
		} else if ctx.Hist.Count(sw, from, ctx.Granule, stuckOnly) > 0 &&
			ctx.Hist.Count(sw, from, ctx.Granule, valueOnly) == 0 {
			class = core.JobInherentSensor
			pattern = "job-inherent-sensor"
		}
		out = append(out, Finding{
			Subject:     sw,
			Class:       class,
			Persistence: core.Intermittent,
			Pattern:     pattern,
			Confidence:  confidence,
		})
	}
	return out
}

// DefaultONAs returns the assertion suite in priority order. The first
// GatingONAs entries also gate the α-count update: symptoms they explain
// (spatially correlated bursts; omissions reported only by a defective
// receiver) must not accumulate as recurrence evidence against the
// subjects they name.
func DefaultONAs() []ONA {
	return []ONA{
		MassiveTransientONA{},
		ConnectorRxONA{},
		PermanentONA{},
		WearoutONA{},
		RecurrentInternalONA{},
		ConnectorTxONA{},
		IsolatedTransientONA{},
		CorrelatedJobsONA{},
		ConfigurationONA{},
		JobInherentONA{},
	}
}

// GatingONAs is the number of leading DefaultONAs entries evaluated before
// the α-count step.
const GatingONAs = 2
