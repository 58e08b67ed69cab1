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
	"decos/internal/tt"
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

	numKinds
)

func (k FaultKind) String() string {
	names := [...]string{
		"emi", "seu", "connector-tx", "connector-rx", "wearout",
		"intermittent", "permanent", "quartz", "config", "bohrbug",
		"heisenbug", "job-crash", "sensor-stuck", "sensor-drift",
		"power-dip",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// AllKinds returns every fault kind.
func AllKinds() []FaultKind {
	out := make([]FaultKind, numKinds)
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

// Inject performs one randomized injection of the given kind on a Fig. 10
// system. at is the activation instant; horizon the vehicle's total
// simulated span (used to bound open windows). It returns the ledger entry.
//
// Hardware fault targets are restricted to components 0..2 so the analysis
// stage of the diagnostic DAS (component 3) stays operational; in a
// production deployment the diagnostic DAS is itself replicated.
func (s *System) Inject(kind FaultKind, at sim.Time, horizon sim.Time) *faults.Activation {
	return s.InjectWith(s.Injector, kind, at, horizon)
}

// InjectWith is Inject against an explicit injector. It exists for the
// two call sites that cannot use the system's own injector field: fault
// manifests (engine.WithFaults hooks run before the System struct is
// wired, see Fig10Faulted) and counterfactual replay (decos-whatif
// injects hypotheses into a restored engine).
func (s *System) InjectWith(inj *faults.Injector, kind FaultKind, at sim.Time, horizon sim.Time) *faults.Activation {
	rng := inj.Cluster().Streams.Stream("campaign")
	comp := tt.NodeID(rng.Intn(3))
	switch kind {
	case KindEMI:
		// Epicenter near a random pair of proximate components.
		x := []float64{0.5, 5.5}[rng.Intn(2)]
		return inj.EMIBurst(at, x, 0, 2, faults.EMIBurstDuration, 4)
	case KindSEU:
		return inj.SEU(at, comp)
	case KindConnectorTx:
		return inj.ConnectorTx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindConnectorRx:
		return inj.ConnectorRx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindWearout:
		acc := faults.WearoutAcceleration{
			Onset:           at,
			Tau:             400 * sim.Millisecond,
			BaseRatePerHour: 3600 * 4,
			MaxFactor:       40,
		}
		return inj.Wearout(comp, acc, 3600*20)
	case KindIntermittent:
		return inj.IntermittentInternal(comp, at, 3600*6, 0)
	case KindPermanent:
		return inj.PermanentFailSilent(comp, at)
	case KindQuartz:
		return inj.DefectiveQuartz(comp, at, 50_000+rng.Float64()*100_000)
	case KindConfig:
		return inj.MisconfigureQueue(s.Sink, ChLoad, 1)
	case KindBohrbug:
		return inj.Bohrbug(s.Sensor, ChSpeed,
			func(v float64, now sim.Time) bool { return now >= at && v > 55 }, 400)
	case KindHeisenbug:
		return inj.Heisenbug(s.Sensor, ChSpeed, 0.04, 500, false)
	case KindJobCrash:
		return inj.JobCrash(s.Sensor, at)
	case KindSensorStuck:
		return inj.SensorStuck(s.Sensor, at, 60)
	case KindSensorDrift:
		return inj.SensorDrift(s.Sensor, at, 3600*50)
	case KindPowerDip:
		return inj.PowerDip(comp, at, faults.TransientOutage)
	default:
		panic("scenario: unknown fault kind")
	}
}

// InjectAt is InjectWith with the hardware target pinned to an explicit
// component instead of drawn from the campaign stream. It exists for
// counterfactual replay (decos-whatif's wrong-FRU hypothesis: the same
// fault kind manifesting on a different component); kinds without a
// component target — EMI, software and configuration faults — fall back
// to InjectWith's randomized targeting.
func (s *System) InjectAt(inj *faults.Injector, kind FaultKind, comp tt.NodeID, at sim.Time, horizon sim.Time) *faults.Activation {
	rng := inj.Cluster().Streams.Stream("campaign")
	switch kind {
	case KindSEU:
		return inj.SEU(at, comp)
	case KindConnectorTx:
		return inj.ConnectorTx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindConnectorRx:
		return inj.ConnectorRx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindWearout:
		acc := faults.WearoutAcceleration{
			Onset:           at,
			Tau:             400 * sim.Millisecond,
			BaseRatePerHour: 3600 * 4,
			MaxFactor:       40,
		}
		return inj.Wearout(comp, acc, 3600*20)
	case KindIntermittent:
		return inj.IntermittentInternal(comp, at, 3600*6, 0)
	case KindPermanent:
		return inj.PermanentFailSilent(comp, at)
	case KindQuartz:
		return inj.DefectiveQuartz(comp, at, 50_000+rng.Float64()*100_000)
	case KindPowerDip:
		return inj.PowerDip(comp, at, faults.TransientOutage)
	default:
		return s.InjectWith(inj, kind, at, horizon)
	}
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
	// count (all randomness is pre-drawn sequentially). 0 or 1 runs
	// sequentially. Each worker builds one engine on its first vehicle
	// and resets it in place for every later one (engine.Engine.Reset),
	// across the replicates of a Monte Carlo run too.
	Workers int
	// Classifier selects the diagnostic pipeline's classification stage
	// for every vehicle: "" or "decos" keeps the DECOS rule engine, "obd"
	// swaps the threshold baseline into the pipeline, "bayes" installs
	// the Bayesian posterior stage (a fresh posterior per vehicle —
	// vehicles are independent realizations). The OBD baseline advisor
	// stays attached alongside regardless, so CampaignResult.OBD always
	// reports the baseline while CampaignResult.DECOS reports whatever
	// stage runs in the pipeline.
	Classifier string
	// ChunkRounds > 0 runs every vehicle in chunks of that many rounds,
	// checkpointing the engine between chunks and restoring each
	// continuation into a freshly built engine (engine.WithRestore). The
	// result is bit-identical to an unchunked run — this is the campaign-
	// scale exercise of the checkpoint determinism contract, and the
	// execution shape of resumable long-horizon campaigns.
	ChunkRounds int64
	// Opts tunes the diagnostic subsystem.
	Opts diagnosis.Options
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
// with trace.OpenReader or any warranty ingest path; trace.TranscodeBytes
// renders it as NDJSON). Vehicles are 1-based. The blob is valid only for
// the duration of the call — the worker records its next vehicle into
// the same buffer — so a sink that keeps it must copy it. It is invoked
// from worker goroutines: implementations must be safe for concurrent
// use.
type TraceSink func(vehicle int, blob []byte)

// Run executes the campaign — in parallel when Workers > 1 — and audits
// both diagnosers against the shared ground truth.
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
// Run's for the same seeds. Workers ≤ 0 uses runtime.NumCPU().
func (c Campaign) RunTraced(sink TraceSink) *CampaignResult {
	return c.RunTracedContext(context.Background(), sink)
}

// RunTracedContext is RunTraced under a context, with RunContext's
// partial-result semantics; cancelled vehicles hand nothing to sink.
func (c Campaign) RunTracedContext(ctx context.Context, sink TraceSink) *CampaignResult {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
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
// sink), so merged numbers stay exact.
func (c Campaign) runReplicates(ctx context.Context, n int, sink TraceSink) []*replicate {
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
	runOne := func(w *worker, r, v int) {
		if ctx.Err() != nil {
			return
		}
		rep := reps[r]
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
		sys, err := c.runVehicle(ctx, w.sys, v, p, rec, &w.ckpt)
		if c.ChunkRounds == 0 {
			w.sys = sys
		}
		if err != nil {
			return
		}
		rep.outcomes[v] = outcomeOf(sys, v, p)
		if sink != nil {
			sink(v+1, w.trace.Bytes())
		}
		rep.done[v] = true
	}

	if c.Workers > 1 {
		type job struct{ r, v int }
		var wg sync.WaitGroup
		work := make(chan job)
		for k := 0; k < c.Workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var w worker
				defer w.release()
				for j := range work {
					runOne(&w, j.r, j.v)
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
	} else {
		var w worker
		for r := 0; r < n && ctx.Err() == nil; r++ {
			for v := 0; v < c.Vehicles && ctx.Err() == nil; v++ {
				runOne(&w, r, v)
			}
		}
		w.release()
	}
	return reps
}

// outcomeOf takes vehicle v's audit material out of its system.
func outcomeOf(sys *System, v int, p vehiclePlan) vehicleOutcome {
	out := vehicleOutcome{faultFree: p.faultFree}
	if p.faultFree {
		out.decosFalseAlarms = countRemovalAdvice(sys, sys.Diag)
		out.obdFalseAlarms = countRemovalAdvice(sys, sys.OBD)
	} else {
		for _, act := range sys.Injector.Ledger() {
			out.decos = append(out.decos, maintenance.Audit(act, sys.Diag))
			out.obd = append(out.obd, maintenance.Audit(act, sys.OBD))
		}
	}
	for _, vd := range sys.Diag.Assessor.Emitted() {
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
// its system (nil until its first vehicle, and for chunked campaigns),
// the vehicle's binary trace buffer and sink (traced runs only), and the
// chunk checkpoint.
type worker struct {
	sys   *System
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

// runVehicle readies a system for vehicle v (0-based) of the campaign
// from its plan and runs it to the horizon. sys is the worker's system
// from its previous vehicle, reset in place for this one; a nil sys
// builds a fresh one. A chunked campaign runs in ChunkRounds
// checkpoint/restore chunks through ck, each restored into a freshly
// built engine, so its workers keep no system and always pass nil. With a non-nil rec, the vehicle records into it
// and ends its trace with the audit block. It fails only when ctx is
// cancelled mid-run.
func (c Campaign) runVehicle(ctx context.Context, sys *System, v int, p vehiclePlan, rec trace.Sink, ck *bytes.Buffer) (*System, error) {
	var extra []engine.Option
	if rec != nil {
		extra = append(extra, engine.WithSink(rec,
			trace.Options{TrustEveryEpochs: 5, Vehicle: v + 1}))
	}
	// The injections ride in the fault manifest (Fig10Faulted), not as
	// post-build calls: a manifest is what a checkpoint restore can
	// reconstruct, so chunked execution replays it per chunk, and what
	// a reset re-runs on the worker's engine.
	horizon := sim.Time(c.Rounds * tt.UniformSchedule(4, 250*sim.Microsecond, 256).RoundDuration().Micros())
	plan := make([]InjectPlan, 0, len(p.kinds))
	for i, kind := range p.kinds {
		plan = append(plan, InjectPlan{
			Kind: kind, At: sim.Time(float64(horizon) * p.atFrac[i]), Horizon: horizon,
		})
	}
	if sys != nil {
		if err := sys.Reset(p.seed, plan, extra...); err != nil {
			panic(fmt.Sprintf("scenario: vehicle reset: %v", err))
		}
	} else {
		// Each vehicle's engine gets its own classifier instance (the
		// Bayesian stage is stateful; a reset clears it).
		extra = append(pack.ClassifierOptions(c.Classifier), extra...)
		sys = Fig10Faulted(p.seed, c.Opts, plan, extra...)
	}
	if c.ChunkRounds > 0 {
		// Chunked resume: run, checkpoint, rebuild restored, repeat. Every
		// chunk engine records into the same sink — the restored
		// recorder's cursors continue the stream seamlessly, and a second
		// binary sink would open a second stream header mid-stream.
		for ran := int64(0); ran < c.Rounds; {
			step := c.ChunkRounds
			if ran+step > c.Rounds {
				step = c.Rounds - ran
			}
			ran += step
			if err := sys.Cluster.RunToRoundCtx(ctx, ran); err != nil {
				return nil, err
			}
			if ran >= c.Rounds {
				break
			}
			// The restore copies everything it keeps out of ck, so the
			// next chunk's checkpoint may overwrite it.
			ck.Reset()
			if err := sys.Engine.Checkpoint(ck); err != nil {
				panic(fmt.Sprintf("scenario: chunk checkpoint: %v", err))
			}
			sys = Fig10Faulted(p.seed, c.Opts, plan,
				append(append([]engine.Option{}, extra...),
					engine.WithRestore(ck.Bytes()))...)
		}
	} else if err := sys.RunCtx(ctx, c.Rounds); err != nil {
		return sys, err
	}
	if r := sys.Engine.Recorder; r != nil {
		r.WriteAudit(horizon, p.faultFree, sys.Injector.Ledger(),
			[]trace.Advisor{{Name: "decos", Adv: sys.Diag}, {Name: "obd", Adv: sys.OBD}},
			hardwareFRUs(sys))
	}
	return sys, nil
}

// hardwareFRUs lists the hardware FRUs of a system (the audit block
// interrogates advisors about each so false alarms are trace-visible).
func hardwareFRUs(sys *System) []core.FRU {
	var out []core.FRU
	for _, c := range sys.Cluster.Components() {
		out = append(out, core.HardwareFRU(int(c.ID)))
	}
	return out
}

// countRemovalAdvice counts hardware FRUs the advisor would remove on a
// fault-free vehicle, folding each recommendation through the shared
// arm audit (every removal there is a false alarm).
func countRemovalAdvice(sys *System, adv maintenance.Advisor) int {
	var audit maintenance.ArmAudit
	for _, c := range sys.Cluster.Components() {
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
