package scenario

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/fleet"
	"decos/internal/maintenance"
	"decos/internal/pack"
	"decos/internal/sim"
	"decos/internal/trace"
)

// FaultKind enumerates the injectable fault types of a campaign, covering
// every class of the maintenance-oriented fault model.
type FaultKind int

const (
	KindEMI FaultKind = iota
	KindSEU
	KindConnectorTx
	KindConnectorRx
	KindWearout
	KindIntermittent
	KindPermanent
	KindQuartz
	KindConfig
	KindBohrbug
	KindHeisenbug
	KindJobCrash
	KindSensorStuck
	KindSensorDrift
	KindPowerDip
)

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(pack.CampaignKinds) {
		return pack.CampaignKinds[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// AllKinds returns every fault kind.
func AllKinds() []FaultKind {
	out := make([]FaultKind, len(pack.CampaignKinds))
	for i := range out {
		out[i] = FaultKind(i)
	}
	return out
}

// DefaultMix approximates the field distributions the paper cites: external
// transients dominate (high transient FIT), connector problems account for
// a large share of electrical failures (~30 %, Swingler), internal
// permanents are rare (100 FIT), and software/configuration faults follow
// the 20-80 observation.
func DefaultMix() map[FaultKind]float64 {
	return map[FaultKind]float64{
		KindEMI:          0.16,
		KindSEU:          0.14,
		KindConnectorTx:  0.14,
		KindConnectorRx:  0.08,
		KindWearout:      0.07,
		KindIntermittent: 0.07,
		KindPermanent:    0.05,
		KindQuartz:       0.04,
		KindConfig:       0.07,
		KindBohrbug:      0.05,
		KindHeisenbug:    0.05,
		KindJobCrash:     0.02,
		KindSensorStuck:  0.03,
		KindSensorDrift:  0.03,
		KindPowerDip:     0.06,
	}
}

// Spec draws one injection of the kind as a pack fault. The "campaign"
// stream rng supplies the randomized targeting, in a fixed order: the
// target component first, then the kind's own draw (EMI epicenter,
// connector rate or quartz drift). Hardware targets are drawn from
// components 0..2 so the analysis stage of the diagnostic DAS (component
// 3) stays operational; in a production deployment the diagnostic DAS is
// itself replicated. comp ≥ 0 pins a component-level kind's target
// instead and skips that draw. Kinds without a component target draw it
// all the same and carry Component -1. The spec has no instant:
// pack.FaultSpec.Apply takes it.
func (k FaultKind) Spec(rng *sim.RNG, comp int) pack.FaultSpec {
	f := pack.FaultSpec{Component: -1}
	switch k {
	case KindSEU, KindConnectorTx, KindConnectorRx, KindWearout, KindIntermittent,
		KindPermanent, KindQuartz, KindPowerDip:
		if comp < 0 {
			comp = rng.Intn(3)
		}
		f.Component = comp
	default:
		rng.Intn(3)
	}
	switch k {
	case KindEMI:
		// Epicenter near a random pair of proximate components.
		f.Kind, f.X, f.Radius, f.Bits = "emi-burst", []float64{0.5, 5.5}[rng.Intn(2)], 2, 4
		f.DurationMS = float64(faults.EMIBurstDuration / sim.Millisecond)
	case KindSEU:
		f.Kind = "seu"
	case KindConnectorTx:
		f.Kind, f.Rate = "connector-tx", 0.2+0.3*rng.Float64()
	case KindConnectorRx:
		f.Kind, f.Rate = "connector-rx", 0.2+0.3*rng.Float64()
	case KindWearout:
		f.Kind, f.TauMS, f.BaseRatePerHour, f.MaxFactor, f.DriftPerHour = "wearout", 400, 3600*4, 40, 3600*20
	case KindIntermittent:
		f.Kind, f.RatePerHour = "intermittent", 3600*6
	case KindPermanent:
		f.Kind = "permanent-silent"
	case KindQuartz:
		f.Kind, f.DriftPPM = "quartz", 50_000+rng.Float64()*100_000
	case KindConfig:
		f.Kind, f.Job, f.Channel, f.QueueCap = "misconfig-queue", "C/C2", ChLoad, 1
	case KindBohrbug:
		f.Kind, f.Job, f.Channel, f.Threshold, f.Value = "bohrbug", "A/A1", ChSpeed, 55, 400
	case KindHeisenbug:
		f.Kind, f.Job, f.Channel, f.Rate, f.Value = "heisenbug", "A/A1", ChSpeed, 0.04, 500
	case KindJobCrash:
		f.Kind, f.Job = "job-crash", "A/A1"
	case KindSensorStuck:
		f.Kind, f.Job, f.Value = "sensor-stuck", "A/A1", 60
	case KindSensorDrift:
		f.Kind, f.Job, f.DriftPerHour = "sensor-drift", "A/A1", 3600*50
	case KindPowerDip:
		f.Kind, f.DurationMS = "power-dip", float64(faults.TransientOutage/sim.Millisecond)
	default:
		panic("scenario: unknown fault kind")
	}
	return f
}

// Campaign describes a fleet-scale fault-injection experiment: Vehicles
// independent Fig. 10 systems, each running Rounds TDMA rounds with one
// fault drawn from Mix (a share of vehicles stays fault-free to measure
// false alarms).
type Campaign struct {
	Vehicles int
	Rounds   int64
	Seed     uint64
	// Mix weights fault kinds; nil uses DefaultMix.
	Mix map[FaultKind]float64
	// FaultFreeShare is the fraction of vehicles without any fault.
	FaultFreeShare float64
	// FaultsPerVehicle is the number of simultaneous faults injected into
	// each faulty vehicle (distinct kinds; default 1). Higher values
	// stress the classification: overlapping manifestations are the hard
	// case of FRU-level diagnosis.
	FaultsPerVehicle int
	// Workers bounds the number of vehicles simulated concurrently.
	// Vehicles are fully independent simulations, so the campaign is
	// embarrassingly parallel; results are identical for any worker
	// count (all randomness is pre-drawn sequentially). ≤ 0 uses
	// runtime.GOMAXPROCS(0) workers; 1 runs the vehicles one at a time,
	// in order. Each worker builds one engine on its first vehicle and
	// resets it in place for every later one (engine.Engine.Reset),
	// across the replicates of a Monte Carlo run too.
	Workers int
	// Classifier selects the diagnostic pipeline's classification stage
	// for every vehicle: "" or "decos" keeps the DECOS rule engine, "obd"
	// swaps the threshold baseline into the pipeline, "bayes" installs
	// the Bayesian posterior stage (a fresh posterior per vehicle —
	// vehicles are independent realizations). The OBD baseline advisor
	// stays attached alongside regardless, so CampaignResult.OBD always
	// reports the baseline while CampaignResult.DECOS reports whatever
	// stage runs in the pipeline. Any other name panics.
	Classifier string
	// ChunkRounds > 0 runs every vehicle in chunks of that many rounds,
	// checkpointing the engine between chunks and restoring each
	// continuation in place into the same engine (engine.Engine.Reset
	// with engine.WithRestore). The result is bit-identical to an
	// unchunked run — this is the campaign-scale exercise of the
	// checkpoint determinism contract, and the execution shape of
	// resumable long-horizon campaigns.
	ChunkRounds int64
}

// CampaignResult carries the audited comparison of both diagnosers plus
// false-alarm statistics.
type CampaignResult struct {
	DECOS *maintenance.Report
	OBD   *maintenance.Report
	// FalseAlarms counts hardware-removal recommendations for FRUs that
	// were never a culprit, per diagnoser, across fault-free vehicles.
	DECOSFalseAlarms int
	OBDFalseAlarms   int
	FaultFreeCount   int
	// Fleet tallies every job-inherent verdict across the fleet (Section
	// V-C): the 20-80 concentration and systematic-fault separation.
	Fleet *fleet.Tally
	// Partial flags a result cut short by context cancellation: only
	// Completed vehicles are merged; in-flight vehicles are discarded
	// whole, so the numbers that are present remain exact.
	Partial   bool
	Completed int
}

// vehiclePlan is one vehicle's pre-drawn randomness, fixed before any
// concurrent work starts so the campaign result is independent of the
// worker count.
type vehiclePlan struct {
	seed      uint64
	faultFree bool
	kinds     []FaultKind
	atFrac    []float64
}

// vehicleOutcome is one simulated vehicle's audit material, taken out of
// its engine before the worker resets the engine for its next vehicle:
// each diagnoser's audited outcome per injected fault (their Activation
// fields keep the vehicle's ledger), the false alarms and the incidents.
type vehicleOutcome struct {
	faultFree        bool
	decosFalseAlarms int
	obdFalseAlarms   int
	decos, obd       []maintenance.Outcome
	incidents        []fleet.Incident
}

// TraceSink receives one vehicle's complete trace, audit block included,
// as a binary (DCS-B) blob: one stream header, then the records (read it
// with trace.OpenReader or any warranty ingest path; trace.Transcode into
// an NDJSON sink renders it readable). Vehicles are 1-based. The blob is valid only for
// the duration of the call — the worker records its next vehicle into
// the same buffer — so a sink that keeps it must copy it. It is invoked
// from worker goroutines: implementations must be safe for concurrent
// use.
type TraceSink func(vehicle int, blob []byte)

// Run executes the campaign on its Workers and audits both diagnosers
// against the shared ground truth.
func (c Campaign) Run() *CampaignResult { return c.run(context.Background(), nil) }

// RunContext is Run under a context: cancellation stops feeding vehicles,
// aborts in-flight simulations at the next scheduler poll, and returns a
// partial result (Partial=true) merging only the vehicles that completed.
// Workers exit before RunContext returns — no goroutines are leaked.
func (c Campaign) RunContext(ctx context.Context) *CampaignResult { return c.run(ctx, nil) }

// RunTraced is Run doubling as the fleet load generator: every vehicle
// additionally records a binary trace (failed frames, symptoms, verdicts,
// trust samples, injections, end-of-run audit) and hands it to sink — the
// off-line warranty-analysis interface of Section V-B at fleet scale. The
// blob is valid only for the duration of the sink call (see TraceSink).
// Recording only observes, so the returned result is bit-identical to
// Run's for the same seeds.
func (c Campaign) RunTraced(sink TraceSink) *CampaignResult {
	return c.RunTracedContext(context.Background(), sink)
}

// RunTracedContext is RunTraced under a context, with RunContext's
// partial-result semantics; cancelled vehicles hand nothing to sink.
func (c Campaign) RunTracedContext(ctx context.Context, sink TraceSink) *CampaignResult {
	return c.run(ctx, sink)
}

// run is the one-replicate case of runReplicates.
func (c Campaign) run(ctx context.Context, sink TraceSink) *CampaignResult {
	return c.runReplicates(ctx, 1, sink)[0].result(ctx)
}

// replicate is one replicate campaign's vehicles: their plans, and the
// outcomes of those that completed.
type replicate struct {
	plans    []vehiclePlan
	outcomes []vehicleOutcome
	done     []bool
}

// replicateSeed is the master seed of Monte Carlo replicate r; replicate
// 0 is the campaign itself. 0x9e3779b97f4a7c15 is the 64-bit golden-ratio
// increment: the multiplied offset keeps replicate seed streams disjoint
// from the per-vehicle seed lattice (Seed + v·7919) inside each replicate.
func (c Campaign) replicateSeed(r int) uint64 { return c.Seed + uint64(r)*0x9e3779b97f4a7c15 }

// runReplicates simulates n replicates of the campaign — replicate r
// reseeded with replicateSeed(r) — as one pool of Workers workers over
// (replicate, vehicle) jobs, fed in that order. Each worker keeps one
// engine from vehicle to vehicle and replicate to replicate. A vehicle
// cancelled by ctx is discarded whole (no outcome, no trace handed to
// sink), so merged numbers stay exact. An unknown Classifier panics
// before any vehicle runs.
func (c Campaign) runReplicates(ctx context.Context, n int, sink TraceSink) []*replicate {
	if err := pack.CheckClassifier(c.Classifier); err != nil {
		panic(fmt.Sprintf("scenario: campaign: %v", err))
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reps := make([]*replicate, n)
	for r := range reps {
		rc := c
		rc.Seed = c.replicateSeed(r)
		reps[r] = &replicate{
			plans:    rc.plans(),
			outcomes: make([]vehicleOutcome, c.Vehicles),
			done:     make([]bool, c.Vehicles),
		}
	}
	type job struct{ r, v int }
	var wg sync.WaitGroup
	work := make(chan job)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			defer w.release()
			for j := range work {
				if ctx.Err() != nil {
					continue
				}
				rep, v := reps[j.r], j.v
				p := rep.plans[v]
				var rec trace.Sink
				if sink != nil {
					if w.sink == nil {
						w.trace = traceBuffers.Get().(*bytes.Buffer)
						w.sink = trace.NewBinarySink(w.trace)
					}
					w.trace.Reset()
					w.sink.Reset()
					rec = w.sink
				}
				if err := c.runVehicle(ctx, &w, v, p, rec); err != nil {
					continue
				}
				rep.outcomes[v] = outcomeOf(w.eng, v, p)
				if sink != nil {
					sink(v+1, w.trace.Bytes())
				}
				rep.done[v] = true
			}
		}()
	}
feed:
	for r := range reps {
		for v := 0; v < c.Vehicles; v++ {
			select {
			case work <- job{r, v}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(work)
	wg.Wait()
	return reps
}

// outcomeOf takes vehicle v's audit material out of its engine.
func outcomeOf(eng *engine.Engine, v int, p vehiclePlan) vehicleOutcome {
	out := vehicleOutcome{faultFree: p.faultFree}
	if p.faultFree {
		out.decosFalseAlarms = countRemovalAdvice(eng, eng.Diag)
		out.obdFalseAlarms = countRemovalAdvice(eng, eng.OBD)
	} else {
		for _, act := range eng.Injector.Ledger() {
			out.decos = append(out.decos, maintenance.Audit(act, eng.Diag))
			out.obd = append(out.obd, maintenance.Audit(act, eng.OBD))
		}
	}
	for _, vd := range eng.Diag.Assessor.Emitted() {
		if fleet.Relevant(vd.Class) {
			out.incidents = append(out.incidents, fleet.Incident{
				Vehicle: v + 1, Job: vd.FRU.Job, Class: vd.Class, Pattern: vd.Pattern,
			})
		}
	}
	return out
}

// result merges the replicate's completed vehicles in vehicle order —
// deterministic regardless of Workers — auditing both diagnosers.
func (rep *replicate) result(ctx context.Context) *CampaignResult {
	res := &CampaignResult{Fleet: fleet.NewTally()}
	decos := maintenance.Report{Confusion: map[core.FaultClass]map[core.FaultClass]int{}}
	obd := maintenance.Report{Confusion: map[core.FaultClass]map[core.FaultClass]int{}}
	for v, out := range rep.outcomes {
		if !rep.done[v] {
			continue
		}
		res.Completed++
		for _, inc := range out.incidents {
			res.Fleet.Observe(inc.Vehicle, inc.Job)
		}
		if out.faultFree {
			res.FaultFreeCount++
			res.DECOSFalseAlarms += out.decosFalseAlarms
			res.OBDFalseAlarms += out.obdFalseAlarms
			continue
		}
		for i := range out.decos {
			decos.Record(out.decos[i])
			obd.Record(out.obd[i])
		}
	}
	res.DECOS, res.OBD = &decos, &obd
	res.Partial = ctx.Err() != nil && res.Completed < len(rep.outcomes)
	return res
}

// plans draws every vehicle's randomness up front, sequentially, so the
// campaign result is independent of the worker count.
func (c Campaign) plans() []vehiclePlan {
	mix := c.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	kinds, weights := normalizeMix(mix)
	perVehicle := c.FaultsPerVehicle
	if perVehicle <= 0 {
		perVehicle = 1
	}
	pickRNG := sim.NewRNG(c.Seed ^ 0xcafef00d)
	plans := make([]vehiclePlan, c.Vehicles)
	for v := range plans {
		p := vehiclePlan{
			seed:      c.Seed + uint64(v)*7919,
			faultFree: pickRNG.Bool(c.FaultFreeShare),
		}
		if !p.faultFree {
			used := map[FaultKind]bool{}
			for len(p.kinds) < perVehicle && len(used) < len(kinds) {
				kind := kinds[sample(pickRNG, weights)]
				if used[kind] {
					continue
				}
				used[kind] = true
				p.kinds = append(p.kinds, kind)
				p.atFrac = append(p.atFrac, 0.1+0.3*pickRNG.Float64())
			}
		}
		plans[v] = p
	}
	return plans
}

// worker is one campaign worker's state, kept from vehicle to vehicle:
// its engine (nil until its first vehicle), the vehicle's binary trace
// buffer and sink (traced runs only), and the chunk checkpoint.
type worker struct {
	eng   *engine.Engine
	trace *bytes.Buffer
	sink  *trace.BinarySink
	ckpt  bytes.Buffer
}

// traceBuffers recycles worker trace buffers across campaigns: a
// vehicle's binary trace runs to hundreds of KiB, and regrowing one from
// empty in every worker of every campaign was 41 % of the bytes a traced
// fleet of short campaigns allocated.
var traceBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// release hands the worker's trace buffer back for the next campaign.
func (w *worker) release() {
	if w.trace != nil {
		w.trace.Reset()
		traceBuffers.Put(w.trace)
	}
}

// runVehicle readies the worker's engine for vehicle v (0-based) of the
// campaign from its plan and runs it to the horizon: the engine from the
// worker's previous vehicle is reset in place for this one
// (engine.Engine.Reset), and a worker's first vehicle builds it. A
// chunked campaign runs in ChunkRounds chunks, checkpointing through the
// worker's buffer and restoring each chunk in place into the same engine.
// With a non-nil rec, the vehicle records into it and ends its trace with
// the audit block. It fails only when ctx is cancelled mid-run.
func (c Campaign) runVehicle(ctx context.Context, w *worker, v int, p vehiclePlan, rec trace.Sink) error {
	// The injections ride in the fault manifest (Fig10's plan): a
	// manifest is what a reset re-runs on the worker's engine, and what
	// a checkpoint restore reconstructs the run from.
	horizon := RoundsAt(c.Rounds)
	plan := make([]InjectPlan, 0, len(p.kinds))
	for i, kind := range p.kinds {
		plan = append(plan, InjectPlan{
			Kind: kind, At: sim.Time(float64(horizon) * p.atFrac[i]),
		})
	}
	// Every chunk records into the same sink: the restored recorder's
	// cursors continue the stream seamlessly, and a second binary sink
	// would open a second stream header mid-stream.
	run := []engine.Option{engine.WithSeed(p.seed), PlanFaults(plan)}
	if rec != nil {
		run = append(run, engine.WithSink(rec, trace.Options{TrustEveryEpochs: 5, Vehicle: v + 1}))
	}
	if w.eng == nil {
		// Each worker's engine gets its own classifier instance (the
		// Bayesian stage is stateful; a reset clears it).
		w.eng = Fig10(p.seed, diagnosis.Options{}, nil, append(pack.ClassifierOptions(c.Classifier), run...)...)
	} else if err := w.eng.Reset(run...); err != nil {
		panic(fmt.Sprintf("scenario: vehicle reset: %v", err))
	}
	eng := w.eng
	for ran := int64(0); ran < c.Rounds; {
		step := c.Rounds - ran
		if c.ChunkRounds > 0 {
			step = min(c.ChunkRounds, step)
		}
		if err := eng.Cluster.RunRounds(ctx, step); err != nil {
			return err
		}
		if ran += step; ran < c.Rounds {
			// The restore copies everything it keeps out of the buffer,
			// so the next chunk's checkpoint may overwrite it.
			w.ckpt.Reset()
			if err := eng.Checkpoint(&w.ckpt); err != nil {
				panic(fmt.Sprintf("scenario: chunk checkpoint: %v", err))
			}
			if err := eng.Reset(append(run, engine.WithRestore(w.ckpt.Bytes()))...); err != nil {
				panic(fmt.Sprintf("scenario: chunk restore: %v", err))
			}
		}
	}
	if r := eng.Recorder; r != nil {
		r.WriteAudit(horizon, p.faultFree, eng.Injector.Ledger(),
			[]trace.Advisor{{Name: "decos", Adv: eng.Diag}, {Name: "obd", Adv: eng.OBD}},
			hardwareFRUs(eng))
	}
	return nil
}

// hardwareFRUs lists the hardware FRUs of a system (the audit block
// interrogates advisors about each so false alarms are trace-visible).
func hardwareFRUs(eng *engine.Engine) []core.FRU {
	var out []core.FRU
	for _, c := range eng.Cluster.Components() {
		out = append(out, core.HardwareFRU(int(c.ID)))
	}
	return out
}

// countRemovalAdvice counts hardware FRUs the advisor would remove on a
// fault-free vehicle, folding each recommendation through the shared
// arm audit (every removal there is a false alarm).
func countRemovalAdvice(eng *engine.Engine, adv maintenance.Advisor) int {
	var audit maintenance.ArmAudit
	for _, c := range eng.Cluster.Components() {
		if action, _, ok := adv.Advise(core.HardwareFRU(int(c.ID))); ok {
			audit.HealthyAdvice(action)
		}
	}
	return audit.FalseAlarms
}

func normalizeMix(mix map[FaultKind]float64) ([]FaultKind, []float64) {
	var kinds []FaultKind
	for _, k := range AllKinds() {
		if mix[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		// A mix without any positive weight (empty map, or all entries
		// zero/negative) would leave sample() choosing from nothing and
		// index kinds[-1]; treat it like a nil Mix and fall back to the
		// default field distribution.
		return normalizeMix(DefaultMix())
	}
	total := 0.0
	for _, k := range kinds {
		total += mix[k]
	}
	weights := make([]float64, len(kinds))
	for i, k := range kinds {
		weights[i] = mix[k] / total
	}
	return kinds, weights
}

func sample(rng *sim.RNG, weights []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
