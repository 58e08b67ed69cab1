package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
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
	inj.SensorStuck(cl.DAS("A").JobNamed("A1"), sim.Time(20000), 42)
}

// fig10Ckpt assembles the Fig. 10 system with the rich manifest, tracing
// into w, plus any extra options (a checkpoint sink or a restore source).
func fig10Ckpt(w *bytes.Buffer, extra ...engine.Option) *engine.Engine {
	opts := append([]engine.Option{
		engine.WithFaults(richManifest),
		engine.WithSink(trace.NewNDJSONSink(w), trace.Options{AllFrames: true, TrustEveryEpochs: 2}),
	}, extra...)
	return scenario.Fig10(20050404, diagnosis.Options{}, nil, opts...)
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
	gold.Cluster.RunRounds(context.Background(), total)
	goldFinal := checkpointBytes(t, gold)

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
	run2.Cluster.RunRounds(context.Background(), total)
	if run2.CkptErr != nil {
		t.Fatalf("checkpoint sink error: %v", run2.CkptErr)
	}
	if len(points) != 3 {
		t.Fatalf("sink fired %d times over %d rounds at cadence 40, want 3", len(points), total)
	}
	for i, p := range points {
		if want := int64(40*(i+1) - 1); p.round != want {
			t.Errorf("checkpoint %d taken at round %d, want %d", i, p.round, want)
		}
	}
	if v := run2.StateVersion(); v != total {
		t.Errorf("StateVersion = %d after %d rounds, want %d", v, total, total)
	}

	// Checkpointing must not perturb the run.
	if !bytes.Equal(ckptTrace.Bytes(), goldTrace.Bytes()) {
		t.Fatal("trace of checkpointing run differs from uninterrupted run")
	}
	if got := checkpointBytes(t, run2); !bytes.Equal(got, goldFinal) {
		t.Fatal("final state of checkpointing run differs from uninterrupted run")
	}

	// Restore from every cadence point and run to the end.
	for _, p := range points {
		var resTrace bytes.Buffer
		res := fig10Ckpt(&resTrace,
			engine.WithRestore(p.data),
			engine.WithCheckpointSink(func(int64, []byte) error { return nil }, 40))
		if v, want := res.StateVersion(), p.round+1; v != want {
			t.Errorf("restored StateVersion = %d, want %d", v, want)
		}
		res.Cluster.RunRounds(context.Background(), total-res.StateVersion())
		if got := checkpointBytes(t, res); !bytes.Equal(got, goldFinal) {
			t.Errorf("run restored from round %d: final state differs from uninterrupted run", p.round)
			continue
		}
		if want := goldTrace.Bytes()[p.traceLen:]; !bytes.Equal(resTrace.Bytes(), want) {
			t.Errorf("run restored from round %d: trace suffix differs (%d vs %d bytes)",
				p.round, resTrace.Len(), len(want))
		}
		if v := res.StateVersion(); v != total {
			t.Errorf("restored StateVersion = %d after finish, want %d", v, total)
		}
	}
}

// TestChainedRunsMatchOneRun: a relative run counts its rounds from the
// round grid, so 600 chained one-round runs end where one 600-round run
// does — same instant, same events fired, same checkpoint bytes — and a
// run resumed from a restored checkpoint stays on the grid as well.
func TestChainedRunsMatchOneRun(t *testing.T) {
	const total = 600
	var oneTrace, chainedTrace bytes.Buffer
	one := fig10Ckpt(&oneTrace)
	one.Cluster.RunRounds(context.Background(), total)
	chained := fig10Ckpt(&chainedTrace)
	for i := 0; i < total; i++ {
		chained.Cluster.RunRounds(context.Background(), 1)
	}
	if got, want := chained.Cluster.Sched.Now(), one.Cluster.Sched.Now(); got != want {
		t.Errorf("chained runs end at %v, one run at %v", got, want)
	}
	if got, want := chained.Cluster.Sched.Fired(), one.Cluster.Sched.Fired(); got != want {
		t.Errorf("chained runs fired %d events, one run %d", got, want)
	}
	want := checkpointBytes(t, one)
	if !bytes.Equal(checkpointBytes(t, chained), want) {
		t.Error("chained runs' checkpoint differs from one run's")
	}

	var headTrace, tailTrace bytes.Buffer
	head := fig10Ckpt(&headTrace)
	head.Cluster.RunRounds(context.Background(), total/2)
	tail := fig10Ckpt(&tailTrace, engine.WithRestore(checkpointBytes(t, head)))
	tail.Cluster.RunRounds(context.Background(), total/2)
	if got, want := tail.Cluster.Sched.Now(), one.Cluster.Sched.Now(); got != want {
		t.Errorf("restored run ends at %v, one run at %v", got, want)
	}
	if !bytes.Equal(checkpointBytes(t, tail), want) {
		t.Error("restored run's checkpoint differs from one run's")
	}
}

// TestRestoreAtBoot: a checkpoint taken before any round ran (pending
// manifest timers only) restores and replays the full run identically.
func TestRestoreAtBoot(t *testing.T) {
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	boot := checkpointBytes(t, gold)
	gold.Cluster.RunRounds(context.Background(), 60)
	goldFinal := checkpointBytes(t, gold)

	var resTrace bytes.Buffer
	res := fig10Ckpt(&resTrace, engine.WithRestore(boot))
	if v := res.StateVersion(); v != 0 {
		t.Errorf("StateVersion = %d at boot restore, want 0", v)
	}
	res.Cluster.RunRounds(context.Background(), 60)
	if got := checkpointBytes(t, res); !bytes.Equal(got, goldFinal) {
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
	data := checkpointBytes(t, sys)

	if _, err := engine.New(
		engine.WithTopology(5, 250*sim.Microsecond, 256),
		engine.WithSeed(20050404), engine.WithRestore(data)); err == nil {
		t.Error("restore with mismatched topology should fail")
	}
	if _, err := engine.New(
		engine.WithTopology(4, 250*sim.Microsecond, 256),
		engine.WithSeed(99), engine.WithRestore(data)); err == nil {
		t.Error("restore with mismatched seed should fail")
	}
	if _, err := engine.New(
		engine.WithTopology(4, 250*sim.Microsecond, 256),
		engine.WithRestore([]byte("not a checkpoint"))); err == nil {
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
	gold.Cluster.RunRounds(context.Background(), mid)
	data := checkpointBytes(t, gold)
	traceLen := goldTrace.Len()
	gold.Cluster.RunRounds(context.Background(), total-mid)
	goldFinal := checkpointBytes(t, gold)

	var resTrace bytes.Buffer
	res := fig10Ckpt(&resTrace, engine.WithRestore(data))
	for i := range data {
		data[i] = 0xFF
	}
	res.Cluster.RunRounds(context.Background(), total-mid)
	if got := checkpointBytes(t, res); !bytes.Equal(got, goldFinal) {
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

// sectionBody returns the body of the named section of stream.
func sectionBody(tb testing.TB, stream []byte, name string) []byte {
	tb.Helper()
	i, n, w := sectionAt(tb, stream, name)
	return stream[i+w : i+w+n]
}

// sectionAt locates the named section of stream by walking its framing:
// the offset of its body-length prefix, the body length and the prefix's
// width.
func sectionAt(tb testing.TB, stream []byte, name string) (i, n, w int) {
	tb.Helper()
	for i = len(ckpt.Magic) + 1; ; i += w + n {
		l, lw := binary.Uvarint(stream[i:])
		if l == 0 {
			tb.Fatalf("stream has no section %q", name)
		}
		i += lw + int(l)
		u, uw := binary.Uvarint(stream[i:])
		if n, w = int(u), uw; string(stream[i-int(l):i]) == name {
			return i, n, w
		}
	}
}

// spliceSection replaces the body of the named section of stream.
func spliceSection(tb testing.TB, stream []byte, name string, body []byte) []byte {
	tb.Helper()
	i, n, w := sectionAt(tb, stream, name)
	out := binary.AppendUvarint(append([]byte{}, stream[:i]...), uint64(len(body)))
	out = append(out, body...)
	return append(out, stream[i+w+n:]...)
}

// headOf returns the first n values of body, each a varint, a uvarint or
// a bool byte.
func headOf(body []byte, n int) []byte {
	k := 0
	for ; n > 0; n-- {
		_, w := binary.Uvarint(body[k:])
		k += w
	}
	return append([]byte(nil), body[:k]...)
}

// encodeSection returns the section body s encodes.
func encodeSection(tb testing.TB, s ckpt.Snapshotter) []byte {
	e := ckpt.NewEncoder()
	e.Put("s", s)
	return append([]byte(nil), sectionBody(tb, e.Bytes(), "s")...)
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
		site string
		body []byte
		s    ckpt.Snapshotter
	}{
		{"History", corruptHistory(), sys.Diag.Assessor.Hist},
		// epoch, FRU count, FRU 0's trust, then its trust-history length
		{"Adviser", varints(binary.LittleEndian.AppendUint64(varints(nil, 0, int64(sys.Diag.Reg.Len())), 0), 1<<24),
			sys.Diag.Assessor.Adviser},
		// one actuator, its name, then its history length
		{"Environment", varints(append(binary.AppendUvarint(varints(nil, 1), 5), "valve"...), 1<<24),
			sys.Cluster.Env},
	} {
		d, err := ckpt.NewDecoder(sectionStream("s", c.body))
		if err != nil {
			t.Fatal(err)
		}
		var rerr error
		if n := allocated(func() { rerr = d.Get("s", c.s) }); n >= 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte section", c.site, n, len(c.body))
		}
		if rerr == nil || !strings.Contains(rerr.Error(), `section "s"`) {
			t.Errorf("%s: decoding error = %v, want one naming the section", c.site, rerr)
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

// emptyHistory is a history section with no symptoms: latest granule,
// total, no subject.
func emptyHistory() []byte { return varints(binary.AppendUvarint(varints(nil, 0), 0), 0) }

// assessorAlpha is an assessor section (of the "diag" section's head)
// with no symptoms and one hardware α-count entry, for FRU fru.
func assessorAlpha(fru int64) []byte {
	b := append(varints(nil, 0, 0), emptyHistory()...)
	return binary.LittleEndian.AppendUint64(varints(b, 1, fru), 0)
}

// adviserVerdict is an adviser section for nFRU FRUs with flat trust, no
// standing verdict and one emitted verdict with the given subject, class,
// persistence and action.
func adviserVerdict(nFRU int, subject, class, persistence, action int64) []byte {
	b := varints(nil, 0, int64(nFRU))
	for i := 0; i < nFRU; i++ {
		b = varints(binary.LittleEndian.AppendUint64(b, math.Float64bits(1)), 0)
	}
	b = binary.AppendUvarint(varints(b, 0, 1, 0, 0, subject, class, persistence), 0)
	return varints(binary.LittleEndian.AppendUint64(b, 0), action)
}

// assessorVerdict is adviserVerdict inside an otherwise empty assessor
// section.
func assessorVerdict(nFRU int, subject, class, persistence, action int64) []byte {
	b := append(varints(nil, 0, 0), emptyHistory()...)
	return append(varints(b, 0, 0), adviserVerdict(nFRU, subject, class, persistence, action)...)
}

// historyKind is a history section holding one symptom of kind k for
// FRU 0.
func historyKind(k uint64) []byte {
	b := varints(binary.AppendUvarint(varints(nil, 7), 1), 1, 0, 1)
	b = binary.AppendUvarint(b, k)
	return append(binary.AppendUvarint(varints(b, 0, 0, 0, 0, 0), 0), 0, 0, 0, 0)
}

// stageKind is the tail of an activation after its id and deactivation
// latch: one chain stage of kind k.
func stageKind(k int64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(varints(nil, 1, k, 0, 0), 0), 0)
}

// accumulator is a monitor section whose in-flight accumulator holds one
// entry for the given subject and channel.
func accumulator(subject, channel int64) []byte {
	b := binary.AppendUvarint(varints(nil, 0, 1), 0)
	return binary.LittleEndian.AppendUint64(varints(b, subject, channel, 1), 0)
}

// TestRestoreRejectsUntrackedKeys: a checkpoint naming a key the rebuilt
// system has no slot for — a channel the OBD diagnoser does not watch, a
// node id beyond the cluster, an FRU outside the registry, a channel id
// beyond 16 bits, an enum value beyond its range — fails with an error
// naming the key, and allocates nothing proportional to it. No key is
// narrowed into another one.
func TestRestoreRejectsUntrackedKeys(t *testing.T) {
	var w bytes.Buffer
	sys := fig10Ckpt(&w)
	diagChan := int64(sys.Diag.Monitors[0].Chan) // on the fabric, unwatched by OBD
	nFRU := sys.Diag.Reg.Len()
	adviser, net := sys.Diag.Assessor.Adviser, sys.Cluster.Fabric.Networks()[0]
	for _, c := range []struct {
		site, want string
		body       []byte
		s          ckpt.Snapshotter
	}{
		{"OBD channel", fmt.Sprintf("channel %d", diagChan), obdUnknownChannel(diagChan), sys.OBD},
		// one communication span, for node 1<<40
		{"OBD node", "node 1099511627776", varints(nil, 1, 1<<40, 0, 0), sys.OBD},
		// latest granule, total, one subject (FRU 60000), then its empty list
		{"History", "subject 60000", varints(binary.AppendUvarint(varints(nil, 7), 1), 1, 60000, 0),
			sys.Diag.Assessor.Hist},
		// the channel count, then the first channel counter's channel
		// 65537 (= 1 in 16 bits)
		{"Network channel", "channel 65537", varints(headOf(encodeSection(t, net), 1), 65537, 0), net},
		// the decode-error tally and port count, then the first port's channel
		{"Fabric channel", "channel 65537",
			varints(headOf(encodeSection(t, sys.Cluster.Fabric), 2), 65537, 0), sys.Cluster.Fabric},
		{"α-count FRU 65539", "FRU 65539", assessorAlpha(65539), sys.Diag.Assessor},
		{"α-count FRU 1<<40", "FRU 1099511627776", assessorAlpha(1 << 40), sys.Diag.Assessor},
		{"emitted verdict subject", fmt.Sprintf("verdict subject %d", nFRU), adviserVerdict(nFRU, int64(nFRU), 0, 0, 0), adviser},
		{"accumulator subject", "accumulator subject 60000", accumulator(60000, 0), sys.Diag.Monitors[0]},
		{"accumulator channel", "accumulator channel 65537", accumulator(0, 65537), sys.Diag.Monitors[0]},
		// arm counter, id horizon, activation count, then the first
		// activation's id and latch
		{"StageKind", "core.StageKind 9", append(headOf(encodeSection(t, sys.Injector), 5), stageKind(9)...), sys.Injector},
		{"FaultClass", "core.FaultClass 99", adviserVerdict(nFRU, 0, 99, 0, 0), adviser},
		{"Persistence", "core.Persistence 7", adviserVerdict(nFRU, 0, 0, 7, 0), adviser},
		{"MaintenanceAction", "core.MaintenanceAction 42", adviserVerdict(nFRU, 0, 0, 0, 42), adviser},
		{"symptom Kind", "diagnosis.Kind 200", historyKind(200), sys.Diag.Assessor.Hist},
	} {
		d, err := ckpt.NewDecoder(sectionStream("s", c.body))
		if err != nil {
			t.Fatal(err)
		}
		var rerr error
		if n := allocated(func() { rerr = d.Get("s", c.s) }); n >= 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte section", c.site, n, len(c.body))
		}
		if rerr == nil || !strings.Contains(rerr.Error(), c.want) {
			t.Errorf("%s: decoding error = %v, want one naming %q", c.site, rerr, c.want)
		}
	}

	// Inside a full stream the error names the section too.
	_, err := restoreGolden(obdUnknownChannelStream(t))
	if err == nil || !strings.Contains(err.Error(), "restore obd") {
		t.Errorf("restoring a stream with an unwatched OBD channel: %v, want an obd section error", err)
	}
	for _, s := range untrackedKeyStreams(t) {
		if _, err := restoreGolden(s.stream); err == nil || !strings.Contains(err.Error(), "restore "+s.section) {
			t.Errorf("restoring the golden checkpoint with a bad %s key: %v, want a %s section error", s.section, err, s.section)
		}
	}
}

// obdUnknownChannelStream is the golden checkpoint with its obd section
// replaced by one naming channel 0xffff, which no Fig. 10 port watches.
func obdUnknownChannelStream(tb testing.TB) []byte {
	return spliceSection(tb, generateGoldenCkpt(tb), "obd", obdUnknownChannel(0xffff))
}

// untrackedKeyStreams are the golden checkpoint with one section cut
// short at a key that must be rejected, per section.
func untrackedKeyStreams(tb testing.TB) []struct {
	section string
	stream  []byte
} {
	golden := generateGoldenCkpt(tb)
	var w bytes.Buffer
	nFRU := fig10Ckpt(&w).Diag.Reg.Len()
	edit := func(name string, keep int, tail []byte) []byte {
		return spliceSection(tb, golden, name, append(headOf(sectionBody(tb, golden, name), keep), tail...))
	}
	return []struct {
		section string
		stream  []byte
	}{
		{"vnet", edit("vnet", 2, varints(nil, 65537, 0))},
		{"fabric", edit("fabric", 2, varints(nil, 65537, 0))},
		{"diag", spliceSection(tb, golden, "diag", assessorAlpha(1<<40))},
		{"diag", spliceSection(tb, golden, "diag", assessorVerdict(nFRU, int64(nFRU), 0, 0, 0))},
		{"diag", spliceSection(tb, golden, "diag", assessorVerdict(nFRU, 0, 99, 0, 0))},
		{"faults", edit("faults", 5, stageKind(9))},
	}
}

// unarmableFaultStreams are the golden checkpoint (which holds installed
// fault hooks and pending fault timers) with the bus hook-id horizon
// reset to 0, or the clock moved past every pending timer.
func unarmableFaultStreams(tb testing.TB) (hooks, timers []byte) {
	golden := generateGoldenCkpt(tb)
	tt := sectionBody(tb, golden, "tt")
	round := headOf(tt, 1)
	hooks = spliceSection(tb, golden, "tt", append(varints(round, 0), tt[len(headOf(tt, 2)):]...))
	timers = spliceSection(tb, golden, "sched", varints(nil, 1<<40))
	return hooks, timers
}

// TestRestoreFaultsValidatesBeforeRearm: a fault hook the restored bus
// cannot hold (its id at or beyond the bus's hook-id horizon) or a timer
// the restored clock has passed fails as a faults section error, before
// anything is re-armed, and not through the restore's panic backstop.
func TestRestoreFaultsValidatesBeforeRearm(t *testing.T) {
	hooks, timers := unarmableFaultStreams(t)
	for _, c := range []struct {
		name, want string
		stream     []byte
	}{
		{"hook id beyond the bus horizon", "hook id", hooks},
		{"timer before the clock", "before the restored clock", timers},
	} {
		_, err := restoreGolden(c.stream)
		if err == nil || !strings.Contains(err.Error(), "restore faults") || !strings.Contains(err.Error(), c.want) ||
			strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Errorf("%s: %v, want a faults section error naming %q", c.name, err, c.want)
		}
	}
}
