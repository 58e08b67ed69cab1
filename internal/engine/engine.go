// Package engine is the single cluster-run harness of the reproduction:
// every consumer — the E1–E13 experiments, the scenario constructors
// (Fig. 10, the scalability grid), the fault-injection campaign and the
// command-line tools — assembles its cluster through the same
// functional-options builder, holds the built Engine as its one handle,
// and advances it through the one run call,
// Engine.Cluster.RunRounds(ctx, n).
//
// Before the engine existed each of those call sites hand-rolled the
// identical wiring: TDMA schedule, cluster construction, clock-ensemble
// attachment, diagnosis/OBD attachment, trace recording, start, run
// loop. The engine folds that into one composable pipeline
//
//	schedule → cluster → clocks → topology → diagnosis/OBD → trace → start
//
// so a new workload is an engine configuration, not a new copy of the
// wiring — the same argument "Diagnosable-by-Design" makes for diagnosis
// infrastructure as an architectural layer rather than per-experiment
// scaffolding. New builds an engine and starts its first run; Reset
// starts another on the same engine, in place. Both start every run
// through one path, which also resumes a checkpointed run (WithRestore).
//
// The builder is behaviour-preserving by construction: it performs
// exactly the calls the hand-rolled sites performed, in the same order,
// against the same named RNG streams, so a run under a given seed is
// bit-identical to the pre-engine wiring (guarded by the golden-snapshot
// tests in this package).
package engine

import (
	"fmt"

	"decos/internal/baseline"
	"decos/internal/ckpt"
	"decos/internal/clock"
	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/telemetry"
	"decos/internal/trace"
	"decos/internal/tt"
)

// ClockSpec describes the fault-tolerant clock ensemble of a cluster: one
// oscillator per component, drifts drawn uniformly from ±MaxDriftPPM, FTA
// resynchronization tolerating K faulty clocks within precision window Π.
type ClockSpec struct {
	MaxDriftPPM float64 // uniform drift bound, parts per million
	JitterUS    float64 // per-reading jitter stddev, microseconds
	PrecisionUS float64 // synchronization window Π, microseconds
	Tolerated   int     // K, arbitrary faulty clocks tolerated by FTA
}

// Config is the resolved build plan of an Engine. Construct it through
// Options; the zero value is not runnable.
type Config struct {
	Nodes     int
	SlotLen   sim.Duration
	SlotBytes int
	Seed      uint64

	clocks        *ClockSpec
	build         []func(cl *component.Cluster)
	diagNode      tt.NodeID
	diagOpts      diagnosis.Options
	withDiag      bool
	withOBD       bool
	classifier    diagnosis.Classifier
	obdClassifier bool
	manifest      []func(inj *faults.Injector)
	sink          trace.Sink
	traceOpts     trace.Options
	metrics       *telemetry.Registry
	ckptSink      CheckpointSink
	ckptEvery     int64
	restore       *[]byte // the checkpoint stream; nil starts fresh
}

// Option configures an Engine build.
type Option func(*Config)

// WithTopology sets the cluster dimensions: node count, TDMA slot length
// and per-slot frame payload bytes (a uniform schedule, one slot per
// node — the layout every current scenario uses).
func WithTopology(nodes int, slotLen sim.Duration, slotBytes int) Option {
	return func(c *Config) { c.Nodes, c.SlotLen, c.SlotBytes = nodes, slotLen, slotBytes }
}

// WithSeed sets the master seed all named RNG streams derive from.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithClocks attaches a fault-tolerant clock ensemble (core service C2)
// sized to the topology. This is the single home of the clock wiring the
// experiments and scenarios previously each hand-rolled.
func WithClocks(maxDriftPPM, jitterUS, precisionUS float64, tolerated int) Option {
	return func(c *Config) {
		c.clocks = &ClockSpec{
			MaxDriftPPM: maxDriftPPM, JitterUS: jitterUS,
			PrecisionUS: precisionUS, Tolerated: tolerated,
		}
	}
}

// WithBuild registers a topology-population hook: components, DASs,
// networks, jobs and environment signals are added here, before
// diagnosis attaches and the cluster starts. Hooks run in registration
// order.
func WithBuild(build func(cl *component.Cluster)) Option {
	return func(c *Config) { c.build = append(c.build, build) }
}

// WithDiagnosis attaches the DECOS diagnostic DAS with its analysis stage
// on the given node.
func WithDiagnosis(node tt.NodeID, opts diagnosis.Options) Option {
	return func(c *Config) { c.diagNode, c.diagOpts, c.withDiag = node, opts, true }
}

// WithOBD attaches the conventional on-board-diagnosis baseline.
func WithOBD() Option {
	return func(c *Config) { c.withOBD = true }
}

// WithClassifier swaps the classification stage of the diagnostic
// pipeline (default: the DECOS fault-model classifier). The collector
// and adviser stages run unchanged around it. Requires WithDiagnosis.
func WithClassifier(cls diagnosis.Classifier) Option {
	return func(c *Config) { c.classifier = cls }
}

// WithOBDClassifier attaches the OBD baseline (as WithOBD does) and
// selects it as the diagnostic pipeline's classification stage, so the
// engine's diagnoser runs conventional DTC classification through the
// shared collector/adviser pipeline. Requires WithDiagnosis.
func WithOBDClassifier() Option {
	return func(c *Config) { c.withOBD, c.obdClassifier = true, true }
}

// WithFaults registers a fault-manifest hook invoked with the cluster's
// injector once the cluster is started — the declarative home for
// scripted injections. Hooks run in registration order.
func WithFaults(apply func(inj *faults.Injector)) Option {
	return func(c *Config) { c.manifest = append(c.manifest, apply) }
}

// WithSink routes trace recording into the given sink. A nil sink
// installs no instrumentation (the hot path keeps its
// zero-allocation contract); any other sink receives the event stream
// selected by opts.
func WithSink(sink trace.Sink, opts trace.Options) Option {
	return func(c *Config) { c.sink, c.traceOpts = sink, opts }
}

// WithTelemetry publishes the run's health metrics into the given
// registry: round throughput, per-stage assessment latencies (collect /
// classify / advise, via the pipeline's attach points), and the simulator
// layer counters (scheduled and pooled events, frame statuses, guardian
// blocks, CRC drops). A nil registry — like a nil trace sink — installs no instrumentation at all, preserving the zero-allocation hot
// path and bit-identical outputs.
//
// Counters and histograms are mirrored into plain atomic metrics once per
// round from the simulator thread, so snapshotting the registry from
// another goroutine is race-free.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.metrics = reg }
}

// Engine is one assembled, started cluster with its attached observers.
// Fields for unrequested attachments are nil.
type Engine struct {
	Cluster  *component.Cluster
	Diag     *diagnosis.Diagnostics
	OBD      *baseline.OBD
	Injector *faults.Injector
	Recorder *trace.Recorder
	// Telemetry is the registry passed to WithTelemetry (nil when the run
	// is uninstrumented).
	Telemetry *telemetry.Registry

	// CkptErr holds the first checkpoint-sink error; checkpointing stops
	// after it (mirroring the trace recorder's error latch).
	CkptErr error

	cfg      Config
	resetCfg *Config // Reset's option scratch
	meta     meta    // Checkpoint's meta section scratch
	rounds   int64
}

// New assembles a cluster from the given options and starts its first
// run. The build pipeline is fixed — schedule, cluster, clocks, topology
// hooks, diagnosis, OBD, classifier selection, trace, injector — so every
// consumer constructs byte-identical systems for identical options; the
// run then starts as every run does (see start).
func New(opts ...Option) (*Engine, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	e, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

// build wires the engine: it assembles every subsystem and installs the
// hooks, and starts nothing.
func build(cfg Config) (*Engine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("engine: topology with %d nodes (use WithTopology)", cfg.Nodes)
	}
	if cfg.SlotLen <= 0 || cfg.SlotBytes <= 0 {
		return nil, fmt.Errorf("engine: invalid slot spec %v/%dB (use WithTopology)", cfg.SlotLen, cfg.SlotBytes)
	}

	schedule := tt.UniformSchedule(cfg.Nodes, cfg.SlotLen, cfg.SlotBytes)
	cl := component.NewCluster(schedule, cfg.Seed)
	if cs := cfg.clocks; cs != nil {
		cl.Bus.Clocks = clock.NewCluster(cfg.Nodes, cs.MaxDriftPPM, cs.JitterUS,
			cs.PrecisionUS, cs.Tolerated, cl.Streams.Stream("clocks"))
	}
	for _, build := range cfg.build {
		build(cl)
	}

	e := &Engine{Cluster: cl, cfg: cfg}
	// The engine's round counter is the state version of the run: it
	// advances once per completed round (first hook, so the checkpoint
	// hook — installed last — sees the incremented value).
	cl.Bus.OnRound(func(int64) { e.rounds++ })
	if cfg.withDiag {
		e.Diag = diagnosis.Attach(cl, cfg.diagNode, cfg.diagOpts)
	}
	if cfg.withOBD {
		e.OBD = baseline.Attach(cl)
	}
	if cfg.classifier != nil || cfg.obdClassifier {
		if e.Diag == nil {
			return nil, fmt.Errorf("engine: classifier options require WithDiagnosis")
		}
		cls := cfg.classifier
		if cfg.obdClassifier {
			cls = e.OBD
		}
		e.Diag.Assessor.SetClassifier(cls)
	}
	e.Injector = faults.NewInjector(cl)
	if cfg.sink != nil {
		e.Recorder = trace.AttachSink(cl, e.Diag, e.Injector, cfg.sink, cfg.traceOpts)
	}
	if cfg.metrics.Enabled() {
		e.Telemetry = cfg.metrics
		instrument(e, cfg.metrics)
	}
	e.installCheckpointHook()
	return e, nil
}

// Reset returns the engine to the state New leaves it in, without
// rebuilding it, and starts another run: every subsystem is reset in
// place and keeps its storage, and the topology wiring stays as built.
// opts apply on top of the options the engine was built with, and only
// these four may be given:
//
//   - WithSeed sets the run's master seed (default: the current one).
//     The named RNG streams restart from it and the clock drifts are
//     drawn again, in build order.
//   - WithFaults hooks form the run's fault manifest, replacing the one
//     the engine ran (none given: a fault-free run).
//   - WithSink re-points the trace recorder (default: the current sink
//     and options). It cannot attach recording to an engine built
//     without it, nor detach it.
//   - WithRestore resumes the run from a checkpoint, as New does: the
//     seed and fault manifest must be the checkpointed run's.
//
// For the same seed and faults a reset engine is indistinguishable from
// a freshly built one: its checkpoint, and everything it records and
// checkpoints as it runs, equal the fresh engine's byte for byte.
// Results of the previous run that the caller keeps are left alone:
// Injector.Ledger and Assessor.Emitted start new slices, and trust
// trajectories are read out as copies. A telemetry registry keeps
// accumulating across runs. A failed restore leaves the engine half
// restored, and a later Reset does not undo that: discard the engine.
func (e *Engine) Reset(opts ...Option) error {
	// The options write into a scratch held by the engine: a local would
	// escape through the option calls and cost an allocation per reset.
	if e.resetCfg == nil {
		e.resetCfg = new(Config)
	}
	run := e.resetCfg
	*run = Config{Seed: e.cfg.Seed, sink: e.cfg.sink, traceOpts: e.cfg.traceOpts}
	for _, o := range opts {
		o(run)
	}
	if !run.perRun() {
		return fmt.Errorf("engine: reset: only WithSeed, WithFaults, WithSink and WithRestore may change between runs")
	}
	if (run.sink == nil) != (e.Recorder == nil) {
		return fmt.Errorf("engine: reset: cannot attach or detach trace recording")
	}
	cfg := &e.cfg
	cfg.Seed, cfg.manifest, cfg.sink, cfg.traceOpts, cfg.restore = run.Seed, run.manifest, run.sink, run.traceOpts, run.restore

	// The build pipeline's order, over the existing subsystems.
	cl := e.Cluster
	cl.Reset(cfg.Seed)
	if cs := cfg.clocks; cs != nil {
		cl.Bus.Clocks.Reset(cs.MaxDriftPPM, cs.JitterUS, cl.Streams.Stream("clocks"))
	}
	e.rounds, e.CkptErr = 0, nil
	if e.Diag != nil {
		e.Diag.Reset()
	}
	if e.OBD != nil {
		e.OBD.Reset()
	}
	e.Injector.Reset()
	if e.Recorder != nil {
		e.Recorder.Reset(cfg.sink, cfg.traceOpts)
	}
	return e.start()
}

// start begins a run on the just-built or just-reset subsystems: it
// starts the cluster and applies the fault manifest. With WithRestore it
// first checks the checkpoint's meta section against the engine, runs
// the manifest without arming its timers (the checkpoint's pending-timer
// list is the authoritative phase), then overwrites every subsystem's
// state from the checkpoint's sections and re-arms the slot chain.
func (e *Engine) start() (err error) {
	data := e.cfg.restore
	e.cfg.restore = nil // the engine keeps no hold on the caller's bytes
	var d *ckpt.Decoder
	if data != nil {
		// Subsystem Code methods validate counts, keys, enums and what
		// they re-arm, so input should never reach an invariant that
		// panics by design on programmer error. Arbitrary bytes reach
		// this path — checkpoint files travel through disks and
		// pipelines — so a panic still degrades to an error here, as a
		// backstop: a corrupt checkpoint must never take the process
		// down.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("engine: restore: corrupt checkpoint: %v", p)
			}
		}()
		if d, err = e.checkMeta(*data); err != nil {
			return err
		}
		e.Injector.SetReconstructing(true)
	}
	if err := e.Cluster.Start(); err != nil {
		return fmt.Errorf("engine: start: %w", err)
	}
	for _, apply := range e.cfg.manifest {
		apply(e.Injector)
	}
	if d == nil {
		return nil
	}
	var buf [16]section
	for _, s := range e.sections(buf[:0]) {
		if s.name == "cls" && !d.Has("cls") {
			continue
		}
		if err := d.Get(s.name, s.s); err != nil {
			return fmt.Errorf("engine: restore %s: %w", s.name, err)
		}
	}
	e.Cluster.Bus.Rearm()
	e.rounds = e.meta.rounds
	return nil
}

// perRun reports whether the configuration sets nothing but the per-run
// fields Reset may change: seed, fault manifest, trace sink and restore
// stream.
func (c *Config) perRun() bool {
	return c.Nodes == 0 && c.SlotLen == 0 && c.SlotBytes == 0 && c.clocks == nil &&
		c.build == nil && !c.withDiag && !c.withOBD && c.classifier == nil &&
		!c.obdClassifier && c.metrics == nil && c.ckptSink == nil && c.ckptEvery == 0
}

// MustNew is New, panicking on configuration errors — for scenario
// constructors whose configuration is static and whose failure is a
// programming bug, not a runtime condition.
func MustNew(opts ...Option) *Engine {
	e, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// StateVersion returns the monotonic version of the checkpointable
// cluster state: the number of completed TDMA rounds. It is carried
// across Checkpoint/Restore, so cadence assertions (a sink configured
// with WithCheckpointSink fires at versions N, 2N, ...) hold on restored
// runs exactly as on uninterrupted ones.
func (e *Engine) StateVersion() int64 { return e.rounds }
