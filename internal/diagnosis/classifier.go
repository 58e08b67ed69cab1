package diagnosis

// A Classifier is the second stage of the staged assessment pipeline —
// the paper's fault-classification phase (Fig. 10): handed the epoch's
// evaluation context (distributed-state history, FRU registry,
// recurrence counters) it concludes per-FRU findings. Two first-class
// implementations exist: the DECOS fault-model classifier below and the
// OBD baseline (internal/baseline), which plugs its DTC rule into the
// same pipeline so collector and adviser stages are shared.
type Classifier interface {
	Name() string
	// Classify evaluates one assessment epoch. The returned slice is
	// owned by the classifier and valid only until the next call;
	// findings are in ascending Subject order. Implementations record
	// every concluded class in ctx.Decided — the adviser's trust update
	// reads it.
	Classify(ctx *EvalContext) []Finding
}

// FaultModelClassifier classifies against the maintenance-oriented fault
// model: the ONA suite in priority order, with the α-count recurrence
// step between the gating and residual assertions (Section V-A).
type FaultModelClassifier struct {
	onas []ONA

	// Per-epoch scratch, reused across epochs: the finding map, the
	// subject sort buffer and the output slice.
	decided     map[FRUIndex]Finding
	subjectsBuf []FRUIndex
	findings    []Finding
}

// NewFaultModelClassifier builds the classifier over the default ONA
// suite.
func NewFaultModelClassifier() *FaultModelClassifier {
	return &FaultModelClassifier{
		onas:    DefaultONAs(),
		decided: make(map[FRUIndex]Finding),
	}
}

// Name implements Classifier.
func (c *FaultModelClassifier) Name() string { return "decos" }

// Classify implements Classifier: gating assertions, the α-count step
// over this epoch's evidence, the residual assertions, then the findings
// in deterministic subject order.
func (c *FaultModelClassifier) Classify(ctx *EvalContext) []Finding {
	decided := c.decided
	clear(decided)
	// Gating assertions first: spatial correlation (massive transient)
	// and receiver-side connector attribution. Both also gate the α-count
	// update, so symptoms they explain do not accumulate as recurrence
	// evidence against the FRUs they name.
	for _, ona := range c.onas[:GatingONAs] {
		for _, f := range ona.Evaluate(ctx) {
			if _, dup := decided[f.Subject]; dup {
				continue
			}
			decided[f.Subject] = f
			ctx.Explained[f.Subject] = true
			ctx.Decided[f.Subject] = f.Class
			for _, e := range f.Explains {
				if _, dup := decided[e]; !dup {
					ctx.Explained[e] = true
				}
			}
		}
	}

	// α-count step over this epoch's evidence.
	epochFrom := ctx.Granule - EpochRounds + 1
	if epochFrom < 0 {
		epochFrom = 0
	}
	for _, hw := range ctx.Reg.HardwareFRUs() {
		erroneous := !ctx.Explained[hw] && ctx.Hist.Count(hw, epochFrom, ctx.Granule, frameLevel) > 0
		ctx.Alpha.Step(hw, erroneous, 1)
	}
	for _, sw := range ctx.Reg.SoftwareFRUs() {
		erroneous := ctx.Hist.Count(sw, epochFrom, ctx.Granule, valueViolation) > 0
		ctx.SW.Step(sw, erroneous, 1)
	}

	// Remaining assertions in priority order.
	for _, ona := range c.onas[GatingONAs:] {
		for _, f := range ona.Evaluate(ctx) {
			if _, dup := decided[f.Subject]; dup || ctx.Explained[f.Subject] {
				continue
			}
			decided[f.Subject] = f
			ctx.Decided[f.Subject] = f.Class
			for _, e := range f.Explains {
				if _, dup := decided[e]; !dup {
					ctx.Explained[e] = true
				}
			}
		}
	}

	// Findings in deterministic subject order.
	subjects := c.subjectsBuf[:0]
	for s := range decided {
		subjects = append(subjects, s)
	}
	for i := 1; i < len(subjects); i++ {
		for j := i; j > 0 && subjects[j] < subjects[j-1]; j-- {
			subjects[j], subjects[j-1] = subjects[j-1], subjects[j]
		}
	}
	c.subjectsBuf = subjects[:0]
	out := c.findings[:0]
	for _, s := range subjects {
		out = append(out, decided[s])
	}
	c.findings = out[:0]
	return out
}
