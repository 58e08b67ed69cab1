package engine

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"decos/internal/ckpt"
	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/sim"
)

// Engine checkpoints (DESIGN §12). A checkpoint captures the entire
// cluster state at a round boundary — scheduler clock, RNG stream
// states, bus membership and hook-id horizon, virtual-network queues and
// port statistics, job-private state, environment actuations, the full
// diagnostic pipeline (histories, α-counts, trust records, verdicts) and
// the fault injector's phase — as one canonical ckpt stream, such that a
// run restored from the checkpoint is byte-identical to the uninterrupted
// run from the same seed.
//
// Restore works by reconstruction: the engine is rebuilt from the same
// Options (the build pipeline re-executes deterministically at t=0,
// recreating every closure — job implementations, fault role handlers,
// trace hooks), then every subsystem's numeric state is overwritten from
// the stream, pending fault timers are re-armed in original arm order,
// and the TDMA slot chain is re-armed last so same-instant events keep
// their original queue order.

// CheckpointSink receives encoded checkpoints at the configured round
// cadence. The byte slice is freshly allocated per call; the sink owns
// it. A sink error latches into Engine.CkptErr and stops checkpointing.
type CheckpointSink func(round int64, encoded []byte) error

// WithCheckpointSink enables periodic checkpointing: after every
// everyRounds-th completed round the engine encodes its full state and
// hands it to sink. A nil sink or non-positive cadence installs no hook
// at all — the hot path keeps its zero-allocation contract, exactly like
// the no-op trace sink and the nil telemetry registry.
func WithCheckpointSink(sink CheckpointSink, everyRounds int64) Option {
	return func(c *Config) { c.ckptSink, c.ckptEvery = sink, everyRounds }
}

// WithRestore makes New restore the engine from the checkpoint stream
// data instead of starting fresh. The remaining options must describe the
// same system the checkpoint was taken from (same topology, seed, build
// hooks and fault manifest); the meta section is validated against them.
// The bytes are read in place, not copied, and every restored field is
// copied out of them, so the caller may reuse data once New returns.
func WithRestore(data []byte) Option {
	return func(c *Config) { c.restore = &data }
}

// Restore rebuilds an engine from a checkpoint stream:
// engine.Restore(data, opts...) is New(append(opts, WithRestore(data))...).
// The restored run continues bit-identically to the uninterrupted run the
// checkpoint was taken from. As with WithRestore, data is read in place
// and may be reused once Restore returns.
func Restore(data []byte, opts ...Option) (*Engine, error) {
	return New(append(append([]Option{}, opts...), WithRestore(data))...)
}

// encoders recycles checkpoint encoders: a warm encoder keeps its buffers'
// capacity, so a chunked campaign's per-chunk checkpoint stops regrowing
// them from empty.
var encoders = sync.Pool{New: func() any { return ckpt.NewEncoder() }}

// Checkpoint encodes the engine's complete state into w. Valid at round
// boundaries only: after New (round -1), between Run calls, or inside a
// checkpoint sink. Mid-round state (in-flight slots) is deliberately not
// serializable.
func (e *Engine) Checkpoint(w io.Writer) error {
	enc := encoders.Get().(*ckpt.Encoder)
	defer encoders.Put(enc)
	enc.Reset()
	e.encode(enc)
	_, err := w.Write(enc.Bytes())
	return err
}

func (e *Engine) installCheckpointHook() {
	if e.cfg.ckptSink == nil || e.cfg.ckptEvery <= 0 {
		return
	}
	e.Cluster.Bus.OnRound(func(round int64) {
		if e.CkptErr != nil || e.rounds%e.cfg.ckptEvery != 0 {
			return
		}
		var buf bytes.Buffer // a fresh buffer per call: the sink owns it
		err := e.Checkpoint(&buf)
		if err == nil {
			err = e.cfg.ckptSink(round, buf.Bytes())
		}
		if err != nil {
			e.CkptErr = err
		}
	})
}

func (e *Engine) encode(enc *ckpt.Encoder) {
	cl := e.Cluster
	enc.Begin("meta")
	enc.Varint(e.rounds)
	enc.Int(e.cfg.Nodes)
	enc.Varint(int64(e.cfg.SlotLen))
	enc.Int(e.cfg.SlotBytes)
	enc.Uint64(e.cfg.Seed)
	enc.Bool(cl.Bus.Clocks != nil)
	enc.Bool(e.Diag != nil)
	enc.Bool(e.OBD != nil)
	enc.Bool(e.Recorder != nil)
	enc.End()

	enc.Begin("sched")
	cl.Sched.Snapshot(enc)
	enc.End()
	enc.Begin("streams")
	cl.Streams.Snapshot(enc)
	enc.End()
	if cl.Bus.Clocks != nil {
		enc.Begin("clock")
		cl.Bus.Clocks.Snapshot(enc)
		enc.End()
	}
	enc.Begin("tt")
	cl.Bus.Snapshot(enc)
	enc.End()
	enc.Begin("vnet")
	nets := cl.Fabric.Networks()
	enc.Int(len(nets))
	for _, n := range nets {
		n.Snapshot(enc)
	}
	enc.End()
	enc.Begin("fabric")
	cl.Fabric.Snapshot(enc)
	enc.End()
	enc.Begin("jobs")
	cl.SnapshotJobs(enc)
	enc.End()
	enc.Begin("env")
	cl.Env.Snapshot(enc)
	enc.End()
	if e.Diag != nil {
		enc.Begin("diag")
		e.Diag.Snapshot(enc)
		enc.End()
	}
	if e.OBD != nil {
		enc.Begin("obd")
		e.OBD.Snapshot(enc)
		enc.End()
	}
	if s := e.classifierSnapshotter(); s != nil {
		enc.Begin("cls")
		s.Snapshot(enc)
		enc.End()
	}
	if e.Recorder != nil {
		enc.Begin("trace")
		e.Recorder.Snapshot(enc)
		enc.End()
	}
	enc.Begin("faults")
	e.Injector.Snapshot(enc)
	enc.End()
}

// restoreEngine is the WithRestore build path: parse, validate the meta
// fingerprint, reconstruct, overwrite state, re-arm.
func restoreEngine(cfg Config) (e *Engine, err error) {
	// Subsystem Restore methods validate lengths, ids and enum ranges,
	// but a corrupted stream can still trip invariants that panic by
	// design on programmer error (hook-id horizons, scheduling in the
	// past). Arbitrary bytes reach this path — checkpoint files travel
	// through disks and pipelines — so panics degrade to errors here: a
	// corrupt checkpoint must never take the process down.
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, fmt.Errorf("engine: restore: corrupt checkpoint: %v", p)
		}
	}()
	var d *ckpt.Decoder
	if d, err = ckpt.NewDecoder(*cfg.restore); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if err := d.Need("meta"); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	rounds := d.Varint()
	nodes, slotLen, slotBytes := d.Int(), sim.Duration(d.Varint()), d.Int()
	seed := d.Uint64()
	hasClocks, hasDiag, hasOBD, hasTrace := d.Bool(), d.Bool(), d.Bool(), d.Bool()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("engine: restore: meta: %w", err)
	}
	if nodes != cfg.Nodes || slotLen != cfg.SlotLen || slotBytes != cfg.SlotBytes {
		return nil, fmt.Errorf("engine: restore: checkpoint topology %d nodes %v/%dB, options say %d nodes %v/%dB",
			nodes, slotLen, slotBytes, cfg.Nodes, cfg.SlotLen, cfg.SlotBytes)
	}
	if seed != cfg.Seed {
		return nil, fmt.Errorf("engine: restore: checkpoint seed %d, options say %d — the manifest reconstruction would diverge", seed, cfg.Seed)
	}

	if e, err = build(cfg, true); err != nil {
		return nil, err
	}
	cl := e.Cluster
	if hasClocks != (cl.Bus.Clocks != nil) || hasDiag != (e.Diag != nil) || hasOBD != (e.OBD != nil) || hasTrace != (e.Recorder != nil) {
		return nil, fmt.Errorf("engine: restore: checkpoint attachments (clocks=%v diag=%v obd=%v trace=%v) do not match options (clocks=%v diag=%v obd=%v trace=%v)",
			hasClocks, hasDiag, hasOBD, hasTrace,
			cl.Bus.Clocks != nil, e.Diag != nil, e.OBD != nil, e.Recorder != nil)
	}

	// Restore-order invariant: the scheduler first (drops every event the
	// reconstruction armed, including the initial slot event, and sets the
	// clock), plain state next, the injector second-to-last (reinstalls
	// bus hooks — needs the bus's restored hook-id horizon — and re-arms
	// pending timers in original arm order), the slot chain last (so the
	// next slot event queues behind same-instant fault timers, as it did
	// in the uninterrupted run).
	restore := func(name string, s ckpt.Snapshotter) {
		if err != nil {
			return
		}
		if err = d.Need(name); err != nil {
			err = fmt.Errorf("engine: restore: %w", err)
			return
		}
		if rerr := s.Restore(d); rerr != nil {
			err = fmt.Errorf("engine: restore %s: %w", name, rerr)
		}
	}
	restore("sched", cl.Sched)
	restore("streams", cl.Streams)
	if hasClocks {
		restore("clock", cl.Bus.Clocks)
	}
	restore("tt", cl.Bus)
	if err == nil {
		if err = d.Need("vnet"); err == nil {
			nets := cl.Fabric.Networks()
			if n := d.Len(1 << 16); n != len(nets) && d.Err() == nil {
				err = fmt.Errorf("engine: restore vnet: checkpoint has %d networks, build made %d", n, len(nets))
			}
			for _, n := range nets {
				if err != nil {
					break
				}
				if rerr := n.Restore(d); rerr != nil {
					err = fmt.Errorf("engine: restore vnet: %w", rerr)
				}
			}
		} else {
			err = fmt.Errorf("engine: restore: %w", err)
		}
	}
	restore("fabric", cl.Fabric)
	restore("jobs", clusterJobs{cl})
	restore("env", cl.Env)
	if hasDiag {
		restore("diag", e.Diag)
	}
	if hasOBD {
		restore("obd", e.OBD)
	}
	if s := e.classifierSnapshotter(); s != nil && d.Has("cls") {
		restore("cls", s)
	}
	if hasTrace {
		restore("trace", e.Recorder)
	}
	restore("faults", e.Injector)
	if err != nil {
		return nil, err
	}
	cl.Bus.Rearm()
	e.rounds = rounds
	e.installCheckpointHook()
	return e, nil
}

// classifierSnapshotter returns the active classification stage as a
// Snapshotter when it carries its own run state (the Bayesian stage's
// posterior). Nil for the stateless DECOS default — default runs keep
// their exact pre-existing checkpoint bytes — and nil for the OBD
// stage, whose state the "obd" section already carries.
func (e *Engine) classifierSnapshotter() ckpt.Snapshotter {
	if e.Diag == nil {
		return nil
	}
	cls := e.Diag.Assessor.Classifier()
	if e.OBD != nil && cls == diagnosis.Classifier(e.OBD) {
		return nil
	}
	s, _ := cls.(ckpt.Snapshotter)
	return s
}

// clusterJobs adapts the cluster's job-state snapshot methods to the
// Snapshotter shape used by the section table.
type clusterJobs struct{ cl *component.Cluster }

func (j clusterJobs) Snapshot(e *ckpt.Encoder)      { j.cl.SnapshotJobs(e) }
func (j clusterJobs) Restore(d *ckpt.Decoder) error { return j.cl.RestoreJobs(d) }
