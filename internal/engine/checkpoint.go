package engine

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"decos/internal/ckpt"
	"decos/internal/diagnosis"
	"decos/internal/sim"
	"decos/internal/vnet"
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
// Restore works by reconstruction: the run starts as every run does
// (Engine.start, after New's build or Reset's in-place reset), so the
// fault manifest re-executes deterministically at t=0 and recreates its
// closures — fault role handlers, job filters — on wiring that already
// holds every other closure (job implementations, trace hooks); then the
// section table (sections) overwrites every subsystem's state from the
// stream and re-arms what it carries.

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

// WithRestore makes New or Reset resume the run from the checkpoint
// stream data instead of starting it fresh. The engine must describe the
// same system the checkpoint was taken from (same topology, seed, build
// hooks and fault manifest); the meta section is validated against it. A
// corrupt or mismatched stream is an error, never a panic. The bytes are
// read in place, not copied, and every restored field is copied out of
// them, so the caller may reuse data once New or Reset returns.
func WithRestore(data []byte) Option {
	return func(c *Config) { c.restore = &data }
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
	a := e.attachments()
	e.meta = meta{e.rounds, e.cfg.Nodes, e.cfg.SlotBytes, e.cfg.SlotLen, e.cfg.Seed, a}
	enc.Put("meta", &e.meta)
	var buf [16]section
	for _, s := range e.sections(buf[:0]) {
		enc.Put(s.name, s.s)
	}
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

// meta is the checkpoint's fingerprint section: the completed round
// count and what a restore must match before it starts anything.
type meta struct {
	rounds           int64
	nodes, slotBytes int
	slotLen          sim.Duration
	seed             uint64
	att              [4]bool // attachments
}

func (m *meta) Code(c *ckpt.Coder) error {
	ckpt.Varint(c, &m.rounds)
	c.Int(&m.nodes)
	ckpt.Varint(c, &m.slotLen)
	c.Int(&m.slotBytes)
	c.Uint64(&m.seed)
	for i := range m.att {
		c.Bool(&m.att[i])
	}
	return c.Err()
}

// attachments returns which optional subsystems the engine has: clocks,
// diagnosis, OBD, trace.
func (e *Engine) attachments() [4]bool {
	return [4]bool{e.Cluster.Bus.Clocks != nil, e.Diag != nil, e.OBD != nil, e.Recorder != nil}
}

// section is one entry of the engine's section table.
type section struct {
	name string
	s    ckpt.Snapshotter
}

// sections appends the engine's section table after meta to buf: every
// attached subsystem, in stream order. Restore walks the same table, so
// the order is the restore-order invariant: the scheduler first (drops
// every event the reconstruction armed, including the initial slot
// event, and sets the clock), plain state next, the injector last
// (reinstalls bus hooks — needs the bus's restored hook-id horizon — and
// re-arms pending timers in original arm order); the slot chain is
// re-armed after the table, so the next slot event queues behind
// same-instant fault timers, as it did in the uninterrupted run.
func (e *Engine) sections(buf []section) []section {
	cl := e.Cluster
	buf = append(buf, section{"sched", cl.Sched}, section{"streams", cl.Streams})
	if cl.Bus.Clocks != nil {
		buf = append(buf, section{"clock", cl.Bus.Clocks})
	}
	buf = append(buf, section{"tt", cl.Bus}, section{"vnet", networks{cl.Fabric}}, section{"fabric", cl.Fabric},
		section{"jobs", cl}, section{"env", cl.Env})
	if e.Diag != nil {
		buf = append(buf, section{"diag", e.Diag})
	}
	if e.OBD != nil {
		buf = append(buf, section{"obd", e.OBD})
	}
	if s := e.classifierSnapshotter(); s != nil {
		buf = append(buf, section{"cls", s})
	}
	if e.Recorder != nil {
		buf = append(buf, section{"trace", e.Recorder})
	}
	return append(buf, section{"faults", e.Injector})
}

// checkMeta opens the checkpoint stream data and checks its meta section
// against the engine before anything is restored: the topology, seed and
// attachments must be those the checkpoint was taken with. The decoded
// section stays in e.meta.
func (e *Engine) checkMeta(data []byte) (*ckpt.Decoder, error) {
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	m, cfg := &e.meta, &e.cfg
	if err := d.Get("meta", m); err != nil {
		return nil, fmt.Errorf("engine: restore: meta: %w", err)
	}
	if m.nodes != cfg.Nodes || m.slotLen != cfg.SlotLen || m.slotBytes != cfg.SlotBytes {
		return nil, fmt.Errorf("engine: restore: checkpoint topology %d nodes %v/%dB, options say %d nodes %v/%dB",
			m.nodes, m.slotLen, m.slotBytes, cfg.Nodes, cfg.SlotLen, cfg.SlotBytes)
	}
	if m.seed != cfg.Seed {
		return nil, fmt.Errorf("engine: restore: checkpoint seed %d, options say %d — the manifest reconstruction would diverge", m.seed, cfg.Seed)
	}
	if a := e.attachments(); a != m.att {
		return nil, fmt.Errorf("engine: restore: checkpoint attachments (clocks=%v diag=%v obd=%v trace=%v) do not match options (clocks=%v diag=%v obd=%v trace=%v)",
			m.att[0], m.att[1], m.att[2], m.att[3], a[0], a[1], a[2], a[3])
	}
	return d, nil
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

// networks is the "vnet" section: every network of the fabric in build
// order, behind their count.
type networks struct{ f *vnet.Fabric }

func (n networks) Code(c *ckpt.Coder) error {
	nets := n.f.Networks()
	c.Count(len(nets), "networks")
	for _, net := range nets {
		if c.Err() == nil {
			net.Code(c)
		}
	}
	return c.Err()
}
