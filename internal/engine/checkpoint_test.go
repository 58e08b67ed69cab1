package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"decos/internal/ckpt"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// richManifest exercises every phase-carrying fault mechanism at once:
// connector drop hooks, an EMI burst window, a pending SEU, intermittent
// episode timers, a babbling idiot and a sensor value fault — so a
// checkpoint taken mid-run carries pending timers, installed bus hooks,
// phase flags and a deactivation in one stream.
func richManifest(inj *faults.Injector) {
	cl := inj.Cluster()
	inj.ConnectorTx(0, sim.Time(2000), sim.Time(90000), 0.3)
	inj.EMIBurst(sim.Time(10000), 0.5, 0, 2.0, 3*sim.Millisecond, 64)
	inj.SEU(sim.Time(30000), 2)
	inj.IntermittentInternal(2, sim.Time(5000), 2e7, sim.Time(110000))
	inj.PermanentBabbling(3, sim.Time(55000))
	inj.SensorStuck(cl.Component(0).JobNamed("A1"), sim.Time(20000), 42)
}

// fig10Ckpt assembles the Fig. 10 system with the rich manifest, tracing
// into w, plus any extra options (a checkpoint sink or a restore source).
func fig10Ckpt(w *bytes.Buffer, extra ...engine.Option) *scenario.System {
	opts := append([]engine.Option{
		engine.WithFaults(richManifest),
		engine.WithTraceWriter(w, trace.Options{AllFrames: true, TrustEveryEpochs: 2}),
	}, extra...)
	return scenario.Fig10With(20050404, diagnosis.Options{}, opts...)
}

func checkpointBytes(t *testing.T, e *engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreByteIdentical is the core determinism contract: a run
// restored from a mid-run checkpoint finishes in byte-identical state —
// same final checkpoint encoding, same trace suffix — as the
// uninterrupted run, for every checkpoint cadence point.
func TestRestoreByteIdentical(t *testing.T) {
	const total = 120

	// Golden: uninterrupted run, no checkpointing at all.
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	gold.Cluster.RunToRound(total)
	goldFinal := checkpointBytes(t, gold.Engine)

	// Checkpointing run: same seed, sink every 40 rounds.
	type point struct {
		round    int64
		data     []byte
		traceLen int
	}
	var points []point
	var ckptTrace bytes.Buffer
	sink := func(round int64, data []byte) error {
		points = append(points, point{round, data, ckptTrace.Len()})
		return nil
	}
	run2 := fig10Ckpt(&ckptTrace, engine.WithCheckpointSink(sink, 40))
	run2.Cluster.RunToRound(total)
	if run2.Engine.CkptErr != nil {
		t.Fatalf("checkpoint sink error: %v", run2.Engine.CkptErr)
	}
	if len(points) != 3 {
		t.Fatalf("sink fired %d times over %d rounds at cadence 40, want 3", len(points), total)
	}
	for i, p := range points {
		if want := int64(40*(i+1) - 1); p.round != want {
			t.Errorf("checkpoint %d taken at round %d, want %d", i, p.round, want)
		}
	}
	if v := run2.Engine.StateVersion(); v != total {
		t.Errorf("StateVersion = %d after %d rounds, want %d", v, total, total)
	}

	// Checkpointing must not perturb the run.
	if !bytes.Equal(ckptTrace.Bytes(), goldTrace.Bytes()) {
		t.Fatal("trace of checkpointing run differs from uninterrupted run")
	}
	if got := checkpointBytes(t, run2.Engine); !bytes.Equal(got, goldFinal) {
		t.Fatal("final state of checkpointing run differs from uninterrupted run")
	}

	// Restore from every cadence point and run to the end.
	for _, p := range points {
		var resTrace bytes.Buffer
		res := fig10Ckpt(&resTrace,
			engine.WithRestore(p.data),
			engine.WithCheckpointSink(func(int64, []byte) error { return nil }, 40))
		if v, want := res.Engine.StateVersion(), p.round+1; v != want {
			t.Errorf("restored StateVersion = %d, want %d", v, want)
		}
		res.Cluster.RunToRound(total)
		if got := checkpointBytes(t, res.Engine); !bytes.Equal(got, goldFinal) {
			t.Errorf("run restored from round %d: final state differs from uninterrupted run", p.round)
			continue
		}
		if want := goldTrace.Bytes()[p.traceLen:]; !bytes.Equal(resTrace.Bytes(), want) {
			t.Errorf("run restored from round %d: trace suffix differs (%d vs %d bytes)",
				p.round, resTrace.Len(), len(want))
		}
		if v := res.Engine.StateVersion(); v != total {
			t.Errorf("restored StateVersion = %d after finish, want %d", v, total)
		}
	}
}

// TestRestoreAtBoot: a checkpoint taken before any round ran (pending
// manifest timers only) restores and replays the full run identically.
func TestRestoreAtBoot(t *testing.T) {
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	boot := checkpointBytes(t, gold.Engine)
	gold.Cluster.RunToRound(60)
	goldFinal := checkpointBytes(t, gold.Engine)

	var resTrace bytes.Buffer
	res := fig10Ckpt(&resTrace, engine.WithRestore(boot))
	if v := res.Engine.StateVersion(); v != 0 {
		t.Errorf("StateVersion = %d at boot restore, want 0", v)
	}
	res.Cluster.RunToRound(60)
	if got := checkpointBytes(t, res.Engine); !bytes.Equal(got, goldFinal) {
		t.Fatal("run restored from boot checkpoint differs from direct run")
	}
	if !bytes.Equal(resTrace.Bytes(), goldTrace.Bytes()) {
		t.Fatal("trace of boot-restored run differs from direct run")
	}
}

// TestRestoreValidatesOptions: topology and seed mismatches are refused
// up front (a mismatched manifest reconstruction would silently diverge).
func TestRestoreValidatesOptions(t *testing.T) {
	var w bytes.Buffer
	sys := fig10Ckpt(&w)
	data := checkpointBytes(t, sys.Engine)

	if _, err := engine.Restore(data,
		engine.WithTopology(5, 250*sim.Microsecond, 256),
		engine.WithSeed(20050404)); err == nil {
		t.Error("restore with mismatched topology should fail")
	}
	if _, err := engine.Restore(data,
		engine.WithTopology(4, 250*sim.Microsecond, 256),
		engine.WithSeed(99)); err == nil {
		t.Error("restore with mismatched seed should fail")
	}
	if _, err := engine.Restore([]byte("not a checkpoint"),
		engine.WithTopology(4, 250*sim.Microsecond, 256)); err == nil {
		t.Error("restore from garbage should fail")
	}
}

// TestRestoreCopiesOutOfStream pins WithRestore's reuse contract: the
// restore reads the caller's bytes in place, so every field it keeps must
// be a copy. Overwriting the stream right after the restore must leave
// the run byte-identical to the uninterrupted one.
func TestRestoreCopiesOutOfStream(t *testing.T) {
	const mid, total = 60, 120
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	gold.Cluster.RunToRound(mid)
	data := checkpointBytes(t, gold.Engine)
	traceLen := goldTrace.Len()
	gold.Cluster.RunToRound(total)
	goldFinal := checkpointBytes(t, gold.Engine)

	var resTrace bytes.Buffer
	res := fig10Ckpt(&resTrace, engine.WithRestore(data))
	for i := range data {
		data[i] = 0xFF
	}
	res.Cluster.RunToRound(total)
	if got := checkpointBytes(t, res.Engine); !bytes.Equal(got, goldFinal) {
		t.Error("overwriting the restored stream changed the run's final state")
	}
	if !bytes.Equal(resTrace.Bytes(), goldTrace.Bytes()[traceLen:]) {
		t.Error("overwriting the restored stream changed the run's trace")
	}
}

// varints appends each value as a signed varint, the encoding of
// ckpt.Encoder.Int.
func varints(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// sectionStream frames body as the only section of a checkpoint stream.
func sectionStream(name string, body []byte) []byte {
	s := append([]byte{}, ckpt.Magic[:]...)
	s = append(s, ckpt.Version)
	s = binary.AppendUvarint(s, uint64(len(name)))
	s = append(s, name...)
	s = binary.AppendUvarint(s, uint64(len(body)))
	s = append(s, body...)
	return binary.AppendUvarint(s, 0)
}

// spliceSection replaces the body of the named section of stream.
func spliceSection(tb testing.TB, stream []byte, name string, body []byte) []byte {
	tb.Helper()
	tag := append([]byte{byte(len(name))}, name...)
	i := bytes.Index(stream, tag)
	if i < 0 {
		tb.Fatalf("stream has no section %q", name)
	}
	i += len(tag)
	n, w := binary.Uvarint(stream[i:])
	out := binary.AppendUvarint(append([]byte{}, stream[:i]...), uint64(len(body)))
	out = append(out, body...)
	return append(out, stream[i+w+int(n):]...)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// corruptHistory is a history section cut short after its first list
// length, which claims 1<<24 symptoms: latest granule, total, one subject
// (FRU 0), then the list length.
func corruptHistory() []byte {
	return varints(binary.AppendUvarint(varints(nil, 7), 1), 1, 0, 1<<24)
}

// corruptHistoryStream is the golden checkpoint with corruptHistory in
// its diag section, after the collector's two counters.
func corruptHistoryStream(tb testing.TB) []byte {
	return spliceSection(tb, generateGoldenCkpt(tb), "diag", append(varints(nil, 0, 0), corruptHistory()...))
}

// TestRestoreCorruptLengthBounded: a section whose list length claims
// 1<<24 elements it does not carry must fail with an error naming the
// section, before allocating for the claim — for every restored history
// sized from its encoded length.
func TestRestoreCorruptLengthBounded(t *testing.T) {
	var w bytes.Buffer
	sys := fig10Ckpt(&w)
	for _, c := range []struct {
		site    string
		body    []byte
		restore func(d *ckpt.Decoder) error
	}{
		{"History", corruptHistory(), sys.Diag.Assessor.Hist.Restore},
		// epoch, FRU count, FRU 0's trust, then its trust-history length
		{"Adviser", varints(binary.LittleEndian.AppendUint64(varints(nil, 0, int64(sys.Diag.Reg.Len())), 0), 1<<24),
			sys.Diag.Assessor.Adviser.Restore},
		// one actuator, its name, then its history length
		{"Environment", varints(append(binary.AppendUvarint(varints(nil, 1), 5), "valve"...), 1<<24),
			sys.Cluster.Env.Restore},
	} {
		d, err := ckpt.NewDecoder(sectionStream("s", c.body))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Need("s"); err != nil {
			t.Fatal(err)
		}
		var rerr error
		if n := allocated(func() { rerr = c.restore(d) }); n >= 64<<10 {
			t.Errorf("%s.Restore allocated %d bytes for a %d-byte section", c.site, n, len(c.body))
		}
		if rerr == nil || !strings.Contains(rerr.Error(), `section "s"`) {
			t.Errorf("%s.Restore error = %v, want one naming the section", c.site, rerr)
		}
	}

	// The same corruption inside a full stream: the restore fails on the
	// diag section instead of allocating for the claim.
	stream := corruptHistoryStream(t)
	var rerr error
	if n := allocated(func() { _, rerr = restoreGolden(stream) }); n >= 64<<20 {
		t.Errorf("restoring the corrupt stream allocated %d bytes", n)
	}
	if rerr == nil || !strings.Contains(rerr.Error(), "restore diag") {
		t.Errorf("restoring the corrupt stream: %v, want a diag section error", rerr)
	}
}

// obdUnknownChannel is an OBD section whose plausibility spans name
// channel ch: no communication spans, then one channel span (not failing,
// since 0).
func obdUnknownChannel(ch int64) []byte { return varints(nil, 0, 1, ch, 0, 0) }

// TestRestoreRejectsUntrackedKeys: a checkpoint naming a span or subject
// the rebuilt system has no slot for — a channel the OBD diagnoser does
// not watch, a node id beyond the cluster, a history subject outside the
// registry — fails with an error naming the key, and allocates nothing
// proportional to it.
func TestRestoreRejectsUntrackedKeys(t *testing.T) {
	var w bytes.Buffer
	sys := fig10Ckpt(&w)
	diagChan := int64(sys.Diag.Monitors[0].Chan) // on the fabric, unwatched by OBD
	for _, c := range []struct {
		site, want string
		body       []byte
		restore    func(d *ckpt.Decoder) error
	}{
		{"OBD channel", fmt.Sprintf("channel %d", diagChan), obdUnknownChannel(diagChan), sys.OBD.Restore},
		// one communication span, for node 1<<40
		{"OBD node", "node 1099511627776", varints(nil, 1, 1<<40, 0, 0), sys.OBD.Restore},
		// latest granule, total, one subject (FRU 60000), then its empty list
		{"History", "subject 60000", varints(binary.AppendUvarint(varints(nil, 7), 1), 1, 60000, 0),
			sys.Diag.Assessor.Hist.Restore},
	} {
		d, err := ckpt.NewDecoder(sectionStream("s", c.body))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Need("s"); err != nil {
			t.Fatal(err)
		}
		var rerr error
		if n := allocated(func() { rerr = c.restore(d) }); n >= 64<<10 {
			t.Errorf("%s: Restore allocated %d bytes for a %d-byte section", c.site, n, len(c.body))
		}
		if rerr == nil || !strings.Contains(rerr.Error(), c.want) {
			t.Errorf("%s: Restore error = %v, want one naming %q", c.site, rerr, c.want)
		}
	}

	// Inside a full stream the error names the section too.
	_, err := restoreGolden(obdUnknownChannelStream(t))
	if err == nil || !strings.Contains(err.Error(), "restore obd") {
		t.Errorf("restoring a stream with an unwatched OBD channel: %v, want an obd section error", err)
	}
}

// obdUnknownChannelStream is the golden checkpoint with its obd section
// replaced by one naming channel 0xffff, which no Fig. 10 port watches.
func obdUnknownChannelStream(tb testing.TB) []byte {
	return spliceSection(tb, generateGoldenCkpt(tb), "obd", obdUnknownChannel(0xffff))
}
