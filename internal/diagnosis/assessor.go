package diagnosis

import (
	"time"

	"decos/internal/core"
	"decos/internal/sim"
	"decos/internal/vnet"
)

// Fault-model thresholds of the diagnostic DAS: the Fig. 8 pattern table
// and the Section III-E fault hypothesis, one fixed design.
const (
	// EpochRounds is the assessment period: ONAs are evaluated and trust
	// levels updated every EpochRounds TDMA rounds.
	EpochRounds int64 = 50
	// ProximityRadius is the spatial-correlation radius of the
	// massive-transient pattern.
	ProximityRadius float64 = 3
	// BurstGranules is the temporal delta of the massive-transient
	// pattern ("approximately at the same time").
	BurstGranules int64 = 15
	// MultiBitThreshold is the flipped-bit count separating multi-bit
	// (EMI) from single-bit (SEU) corruption.
	MultiBitThreshold float64 = 2
	// PermanentWindow and PermanentDuty define continuous service loss.
	// The fault hypothesis bounds transient outages at 50 ms (50
	// granules); continuous loss must persist well beyond that before it
	// counts as permanent.
	PermanentWindow int64   = 80
	PermanentDuty   float64 = 0.9
	// RiseFactor is the episode-rate growth identifying wearout.
	RiseFactor float64 = 2
	// MinRecurrentGranules is the minimum distinct symptomatic granules
	// for recurrence-based patterns.
	MinRecurrentGranules int = 3
	// OverflowMin is the minimum overflow count for a configuration
	// verdict.
	OverflowMin int = 3
	// DiagQueueCap is the send-queue capacity of the virtual diagnostic
	// network per component.
	DiagQueueCap int = 512
	// DiagChannelBase is the first channel id of the diagnostic network.
	DiagChannelBase vnet.ChannelID = 60000
)

// Options tunes the diagnostic subsystem. Zero values are replaced by the
// defaults of DefaultOptions.
type Options struct {
	// WindowGranules is the ONA lookback horizon.
	WindowGranules int64
	// RetainGranules bounds the distributed-state history.
	RetainGranules int64
	// AlphaK and AlphaThreshold parameterize the α-count mechanism.
	AlphaK         float64
	AlphaThreshold float64
	// DiagAllocBytes dimensions the virtual diagnostic network's frame
	// segment per component.
	DiagAllocBytes int
	// UpdateAvailable reports whether the OEM has released a corrected
	// version of a software FRU (drives update-software vs
	// forward-to-OEM). Nil means no updates available.
	UpdateAvailable func(core.FRU) bool
	// JobInternalAssertions enables the Section III-D extension: monitors
	// query jobs implementing component.SelfChecker, and the job-inherent
	// verdict splits exactly into the software and transducer subclasses.
	JobInternalAssertions bool
	// KeepMonitorLogs retains every emitted symptom on each monitor.
	KeepMonitorLogs bool
}

// DefaultOptions returns the tuning used throughout the experiments.
func DefaultOptions() Options {
	return Options{
		WindowGranules: 400,
		RetainGranules: 1200,
		AlphaK:         0.9,
		AlphaThreshold: 2.5,
		DiagAllocBytes: 64,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.WindowGranules <= 0 {
		o.WindowGranules = d.WindowGranules
	}
	if o.RetainGranules <= 0 {
		o.RetainGranules = d.RetainGranules
	}
	if o.AlphaK <= 0 {
		o.AlphaK = d.AlphaK
	}
	if o.AlphaThreshold <= 0 {
		o.AlphaThreshold = d.AlphaThreshold
	}
	if o.DiagAllocBytes <= 0 {
		o.DiagAllocBytes = d.DiagAllocBytes
	}
	return o
}

// Verdict is one classification of one FRU by the diagnostic DAS.
type Verdict struct {
	Epoch       int64
	At          sim.Time
	Subject     FRUIndex
	FRU         core.FRU
	Class       core.FaultClass
	Persistence core.Persistence
	Pattern     string
	Confidence  float64
	Action      core.MaintenanceAction
}

// TrustPoint is one sample of a FRU's trust trajectory (Fig. 9).
type TrustPoint struct {
	At      sim.Time
	Granule int64
	Trust   core.TrustLevel
}

// Assessor is the analysis stage of the diagnostic DAS, assembled as the
// explicit three-stage evidence pipeline of Fig. 9–11: the embedded
// Collector ingests the symptom stream from the virtual diagnostic
// network into the distributed-state history, the Classifier concludes
// per-FRU findings at every assessment epoch, and the embedded Adviser
// derives maintenance actions and maintains per-FRU trust trajectories.
// The hand-offs are typed — swap the classification stage (SetClassifier,
// engine.WithClassifier) and the same collector and adviser, including
// their trace attach points, run a different diagnoser.
type Assessor struct {
	Reg *Registry
	*Collector
	*Adviser

	// Alpha and SW are the recurrence counters handed to the classifier
	// through the evaluation context: hardware FRUs score frame-level
	// evidence, software FRUs value-domain evidence.
	Alpha *AlphaCount
	SW    *AlphaCount

	classifier Classifier
	opts       Options
	evalCtx    *EvalContext
	stageTimer func(stage Stage, wallNS int64)
}

// Stage identifies one stage of the assessment pipeline for telemetry.
type Stage uint8

const (
	// StageCollect is the per-round symptom drain off the virtual
	// diagnostic network.
	StageCollect Stage = iota
	// StageClassify is the per-epoch ONA/classifier evaluation.
	StageClassify
	// StageAdvise is the per-epoch verdict derivation and trust update.
	StageAdvise
	// NumStages is the stage count, for sizing lookup tables.
	NumStages
)

// NewAssessor creates an assessor over the given registry, wired as the
// default DECOS pipeline (fault-model classifier).
func NewAssessor(reg *Registry, opts Options) *Assessor {
	opts = opts.withDefaults()
	a := &Assessor{
		Reg:        reg,
		Collector:  NewCollector(opts.RetainGranules, reg.Len()),
		Adviser:    NewAdviser(reg, opts),
		Alpha:      NewAlphaCount(opts.AlphaK, opts.AlphaThreshold),
		SW:         NewAlphaCount(opts.AlphaK, opts.AlphaThreshold),
		classifier: NewFaultModelClassifier(),
		opts:       opts,
	}
	a.evalCtx = &EvalContext{
		Hist:      a.Hist,
		Reg:       a.Reg,
		Alpha:     a.Alpha,
		SW:        a.SW,
		Window:    a.opts.WindowGranules,
		Opts:      a.opts,
		Explained: make(map[FRUIndex]bool),
		Decided:   make(map[FRUIndex]core.FaultClass),
	}
	return a
}

// SetClassifier swaps the pipeline's classification stage (nil restores
// the DECOS fault-model classifier). Call it before the first assessment
// epoch runs.
func (a *Assessor) SetClassifier(c Classifier) {
	if c == nil {
		c = NewFaultModelClassifier()
	}
	a.classifier = c
}

// Classifier returns the active classification stage.
func (a *Assessor) Classifier() Classifier { return a.classifier }

// OnStageTiming registers a wall-clock observer of the pipeline stages:
// f(stage, ns) fires after every stage execution — the collect stage once
// per round, classify and advise once per assessment epoch. With no
// observer registered (the default) the pipeline takes no timestamps at
// all, so the disabled path stays free; timings are wall-clock and never
// influence simulated behaviour.
func (a *Assessor) OnStageTiming(f func(stage Stage, wallNS int64)) { a.stageTimer = f }

// onRound is invoked once per TDMA round by the attached cluster.
func (a *Assessor) onRound(round int64, now sim.Time) {
	if a.stageTimer != nil {
		t0 := time.Now()
		a.Drain()
		a.stageTimer(StageCollect, time.Since(t0).Nanoseconds())
	} else {
		a.Drain()
	}
	if (round+1)%EpochRounds == 0 {
		a.evaluateEpoch(round, now)
	}
}

// EvaluateNow forces an epoch evaluation at the given granule/time. The
// assessor-epoch benchmark and allocation guard call it to measure one
// epoch alone.
func (a *Assessor) EvaluateNow(granule int64, now sim.Time) {
	a.evaluateEpoch(granule, now)
}

// evaluateEpoch runs one classify → advise pass over the collected state.
func (a *Assessor) evaluateEpoch(granule int64, now sim.Time) {
	ctx := a.evalCtx
	ctx.Granule = granule
	clear(ctx.Explained)
	clear(ctx.Decided)
	if a.stageTimer == nil {
		a.Adviser.Advance(ctx, a.classifier.Classify(ctx), now)
		return
	}
	t0 := time.Now()
	findings := a.classifier.Classify(ctx)
	t1 := time.Now()
	a.stageTimer(StageClassify, t1.Sub(t0).Nanoseconds())
	a.Adviser.Advance(ctx, findings, now)
	a.stageTimer(StageAdvise, time.Since(t1).Nanoseconds())
}

// reset returns the pipeline to its just-built state, keeping its
// storage: counters zeroed, history emptied, recurrence scores cleared,
// the adviser and the classifier reset. The classifier resets through
// its own Reset method when it has one (a stateless stage needs none).
func (a *Assessor) reset() {
	a.SymptomsReceived, a.DecodeFailures = 0, 0
	a.Hist.reset()
	clear(a.Alpha.score)
	clear(a.SW.score)
	a.Adviser.reset()
	if r, ok := a.classifier.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// ClearVerdict forgets the FRU's verdict and resets its recurrence scores
// (after a repair action).
func (a *Assessor) ClearVerdict(f FRUIndex) {
	a.Forget(f)
	a.Alpha.Reset(f)
	a.SW.Reset(f)
}
