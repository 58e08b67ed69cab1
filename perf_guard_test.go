//go:build !race

// The race detector's runtime allocates where the plain runtime does not
// (it defeats sync.Pool reuse, for one) and runs several times slower, so
// neither the allocation guards nor the timing ratios below mean anything
// under -race; every plain `go test` runs them.

package decos

import (
	"bytes"
	"context"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"decos/internal/baseline"
	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/telemetry"
	"decos/internal/trace"
	"decos/internal/tt"
	"decos/internal/warranty"
)

// Allocation guards for the simulator hot paths. The zero-allocation
// contract (scratch reuse, event pooling, dense bus state) is what the
// hot-path rework (4x faster cluster rounds at 3 allocs/round) is built
// on; these tests fail loudly when a change reintroduces per-slot or
// per-epoch garbage. The ratio test at the end pins a throughput
// claim that compares two cases timed in the same process, so host speed
// cancels out of it.

// nullController is the cheapest possible TT controller: a fixed frame, no
// reaction to traffic.
type nullController struct{ payload []byte }

func (c *nullController) BuildFrame(round int64, slot int) []byte { return c.payload }
func (c *nullController) OnRoundEnd(round int64)                  {}

// TestAllocGuardBusSlot drives a bare 4-node bus with a no-op reception
// and requires at most 2 allocations per TDMA slot in steady state (the
// pooled slot event and the bus scratch make the expected count 0).
func TestAllocGuardBusSlot(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := tt.UniformSchedule(4, 250*sim.Microsecond, 32)
	bus := tt.NewBus(cfg, sched)
	for i := 0; i < 4; i++ {
		bus.Attach(tt.NodeID(i), &nullController{payload: []byte{byte(i)}})
	}
	bus.SetReception(func(*tt.Frame, []tt.FrameStatus, []bool) {})
	bus.Start()

	const roundsPerRun = 512
	slotsPerRun := roundsPerRun * len(cfg.Slots)
	roundUS := cfg.RoundDuration().Micros()
	var until sim.Time
	run := func() {
		until += sim.Time(roundsPerRun * roundUS)
		sched.RunUntil(context.Background(), until)
	}
	run() // warm the event pool and bus scratch

	allocs := testing.AllocsPerRun(5, run)
	perSlot := allocs / float64(slotsPerRun)
	t.Logf("bus slot: %.4f allocs/slot", perSlot)
	if perSlot > 2 {
		t.Errorf("bus slot allocates %.2f objects/slot, want <= 2", perSlot)
	}
}

// TestAllocGuardFrameFanout drives a Fig. 10-sized broadcast (four
// receivers, the sender among them) and requires 0 allocations per slot in
// steady state, for intact, corrupted and mixed-status slots: the frame is
// parsed in place, and a corrupted frame's damaged copy lives in
// fabric-owned scratch instead of being allocated per slot or receiver.
func TestAllocGuardFrameFanout(t *testing.T) {
	for name, per := range map[string][]tt.FrameStatus{
		"intact":    fanoutStatuses(tt.FrameOK),
		"corrupted": fanoutStatuses(tt.FrameCorrupted),
		"mixed":     {tt.FrameOK, tt.FrameCorrupted, tt.FrameOmitted, tt.FrameTiming},
	} {
		f, n := fanoutFabric(t)
		const slotsPerRun = 256
		var round int64
		run := func() {
			for i := 0; i < slotsPerRun; i++ {
				fanoutSlot(f, n, round, per)
				round++
			}
		}
		run() // size the frame, corruption and port scratch
		allocs := testing.AllocsPerRun(5, run)
		t.Logf("%s frame fan-out: %.4f allocs/slot", name, allocs/slotsPerRun)
		if allocs != 0 {
			t.Errorf("%s frame fan-out allocates %.2f objects per %d slots, want 0", name, allocs, slotsPerRun)
		}
	}
}

// TestAllocGuardAssessorEpoch bounds one ONA-suite evaluation over a loaded
// history (active connector fault, symptom traffic flowing). The epoch
// scratch (EvalContext, finding map, sort buffers) is reused; what remains
// is the per-epoch trust-history growth and emitted findings (measured ~3).
func TestAllocGuardAssessorEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{}, frettingConnector)
	sys.Cluster.RunRounds(context.Background(), 2000)
	a := sys.Diag.Assessor

	granule := int64(2000)
	var now sim.Time
	run := func() {
		granule++
		now++
		a.EvaluateNow(granule, now)
	}
	run() // warm the epoch scratch

	allocs := testing.AllocsPerRun(50, run)
	t.Logf("assessor epoch: %.1f allocs/epoch", allocs)
	if allocs > 16 {
		t.Errorf("assessor epoch allocates %.1f objects, want <= 16", allocs)
	}
}

// TestAllocGuardTelemetryRound is the zero-overhead contract of the
// telemetry subsystem, measured: a Fig. 10 cluster round with a nil
// registry must allocate exactly what an entirely un-optioned cluster
// allocates (the disabled path installs no hooks at all), and an enabled
// registry may add at most 2 allocations per round on top.
func TestAllocGuardTelemetryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	perRound := func(extra ...engine.Option) float64 {
		sys := scenario.Fig10(20050404, diagnosis.Options{}, nil, extra...)
		sys.Cluster.RunRounds(context.Background(), 200) // warm pools, scratch and trust histories
		const roundsPerRun = 64
		allocs := testing.AllocsPerRun(5, func() { sys.Cluster.RunRounds(context.Background(), roundsPerRun) })
		return allocs / roundsPerRun
	}

	base := perRound()
	nilReg := perRound(engine.WithTelemetry(nil))
	enabled := perRound(engine.WithTelemetry(telemetry.New()))
	t.Logf("allocs/round: base %.3f, nil registry %.3f, enabled %.3f", base, nilReg, enabled)

	if nilReg != base {
		t.Errorf("nil-registry round allocates %.3f objects, baseline %.3f — disabled telemetry must be free", nilReg, base)
	}
	if enabled > base+2 {
		t.Errorf("enabled-registry round allocates %.3f objects, want <= baseline + 2 (%.3f)", enabled, base+2)
	}
}

// TestAllocGuardBayesOffRound pins the bayes-off contract: a default
// Fig. 10 cluster round (DECOS classification stage, no bayes option)
// must stay at the 3-allocs/round baseline recorded before the Bayesian
// subsystem existed. The Bayesian stage is pay-for-use — installing it
// may cost more per round, but not installing it must cost nothing.
func TestAllocGuardBayesOffRound(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{}, nil)
	sys.Cluster.RunRounds(context.Background(), 200) // warm pools, scratch and trust histories
	const roundsPerRun = 64
	allocs := testing.AllocsPerRun(5, func() { sys.Cluster.RunRounds(context.Background(), roundsPerRun) })
	perRound := allocs / roundsPerRun
	t.Logf("bayes-off cluster round: %.3f allocs/round", perRound)
	if perRound > 3 {
		t.Errorf("default cluster round allocates %.3f objects/round, want <= 3 (the pre-bayes baseline)", perRound)
	}
}

// TestAllocGuardOBDHooks pins the OBD baseline's per-call cost: its frame
// hook (every slot) and round hook (every round) allocate nothing in
// steady state, with a dead component and an implausible sensor keeping
// both kinds of span failing and re-recording their trouble codes. Two
// identical Fig. 10 systems run the same rounds, one with a second OBD
// diagnoser attached; the rounds may differ only by those hooks, so they
// must allocate the same.
func TestAllocGuardOBDHooks(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	faulty := func() *engine.Engine {
		return scenario.Fig10(20050404, diagnosis.Options{}, []scenario.InjectPlan{
			{At: sim.Time(100 * sim.Millisecond), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 3}},
			// Every speed value exceeds the threshold: A1 always publishes 400.
			{Fault: &pack.FaultSpec{Kind: "bohrbug", Job: "A/A1", Channel: scenario.ChSpeed, Threshold: math.Inf(-1), Value: 400}},
		})
	}
	plain, extra := faulty(), faulty()
	obd := baseline.Attach(extra.Cluster)
	const roundsPerRun = 512
	var perRun [2]float64
	for i, sys := range []*engine.Engine{plain, extra} {
		sys.Cluster.RunRounds(context.Background(), 2000) // past the DTC threshold: both codes stored and re-counting
		perRun[i] = testing.AllocsPerRun(2, func() { sys.Cluster.RunRounds(context.Background(), roundsPerRun) })
	}
	dtcs := obd.DTCs()
	t.Logf("allocs per %d rounds: %.0f plain, %.0f with a second OBD (its codes: %v)", roundsPerRun, perRun[0], perRun[1], dtcs)
	if len(dtcs) != 2 || dtcs[0].Count < 2 || dtcs[1].Count < 2 {
		t.Fatalf("the second OBD should hold re-counted U and P codes, has %v", dtcs)
	}
	if perRun[1] != perRun[0] {
		t.Errorf("OBD hooks allocate %.0f objects per %d rounds, want 0", perRun[1]-perRun[0], roundsPerRun)
	}
}

// TestAllocGuardTraceCodec pins the binary trace codec's zero-allocation
// contract on both sides of the wire: encoding events into a sink and
// decoding them back must allocate nothing per event in steady state
// (pooled encode scratch, reused payload buffer, interned strings,
// pointer-field scratch). This is what makes the ≥5x ingest speedup
// pinned by TestBinaryIngestRatio structural rather than incidental.
func TestAllocGuardTraceCodec(t *testing.T) {
	events := syntheticFleetEvents(64, 256)

	sink := trace.NewBinarySink(io.Discard)
	encodeRun := func() {
		for i := range events {
			if err := sink.Record(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeRun() // warm the scratch pool before measuring
	if allocs := testing.AllocsPerRun(5, encodeRun); allocs != 0 {
		t.Errorf("binary encode allocates %.0f times per %d events, want 0", allocs, len(events))
	}

	// Each decodes in place: past a warm-up of `warm` events (the intern
	// table and payload scratch), the rest of the stream decodes with no
	// allocation. Each drains the stream in one call, so the counters are
	// read from inside it once the warm-up is done; as in AllocsPerRun, one
	// P keeps other goroutines' allocations out of the count.
	blob := encodeTraceBlob(t, events, trace.FormatBinary)
	rd, _ := trace.OpenReader(bytes.NewReader(blob))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm = 1024
	var before, after runtime.MemStats
	n := 0
	err := rd.Each(func(*trace.Event) {
		if n++; n == warm {
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil || n != len(events) {
		t.Fatalf("Each: %d of %d events, err %v", n, len(events), err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("binary decode through Each allocates %d times per %d events, want 0", allocs, n-warm)
	}
}

// pointerEvents counts the recorded events that set a pointer field
// (frame, symptom and trust events) on their way into the wrapped sink.
type pointerEvents struct {
	trace.Sink
	n int
}

func (s *pointerEvents) Record(e *trace.Event) error {
	if e.Sender != nil || e.Slot != nil || e.Round != nil || e.Observer != nil || e.Trust != nil {
		s.n++
	}
	return s.Sink.Record(e)
}

// TestAllocGuardTraceRecord pins the recorder's allocation budget: a
// Fig. 10 round under a connector fault, traced into a binary sink on a
// pre-grown buffer, may allocate no more than the same untraced round
// plus one object per recorded event that sets a pointer field (the
// event's pointed-to values stay per-event memory, because sinks may keep
// shallow copies). Everything else — the event itself, subject strings,
// the encoding — must come from reused scratch.
func TestAllocGuardTraceRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	const roundsPerRun = 64
	// perRound returns the allocations and the pointer-field events per
	// round, with the counting sink attached or not.
	perRound := func(traced bool) (allocs, events float64) {
		buf := bytes.NewBuffer(make([]byte, 0, 1<<20))
		sink := &pointerEvents{Sink: trace.NewBinarySink(buf)}
		var opts []engine.Option
		if traced {
			opts = append(opts, engine.WithSink(sink, trace.Options{TrustEveryEpochs: 5, Vehicle: 1}))
		}
		sys := scenario.Fig10(20050404, diagnosis.Options{}, frettingConnector, opts...)
		sys.Cluster.RunRounds(context.Background(), 2000) // warm pools, scratch and histories; verdicts settle
		const runs = 5
		counts := make([]int, 0, runs+1) // AllocsPerRun adds a warm-up call
		allocs = testing.AllocsPerRun(runs, func() {
			buf.Reset()
			n0 := sink.n
			sys.Cluster.RunRounds(context.Background(), roundsPerRun)
			counts = append(counts, sink.n-n0)
		})
		for _, n := range counts[1:] {
			events += float64(n)
		}
		return allocs / roundsPerRun, events / runs / roundsPerRun
	}
	base, _ := perRound(false)
	traced, ptrEvents := perRound(true)
	t.Logf("allocs/round: untraced %.3f, traced %.3f, pointer-field events %.3f", base, traced, ptrEvents)
	if ptrEvents == 0 {
		t.Fatal("the faulted round recorded no frame, symptom or trust events")
	}
	if traced > base+ptrEvents {
		t.Errorf("traced round allocates %.3f objects, want <= untraced %.3f + %.3f pointer-field events",
			traced, base, ptrEvents)
	}
}

// TestAllocGuardIngestStream pins the per-call overhead of collector
// ingest: re-ingesting an in-memory binary trace in steady state must
// allocate under 16 KiB per call — the 64 KiB stream buffer comes from a
// pool, not from every vehicle and every HTTP request.
func TestAllocGuardIngestStream(t *testing.T) {
	blob := encodeTraceBlob(t, syntheticFleetEvents(1, 1024), trace.FormatBinary)
	col := warranty.NewCollector(0)
	ingest := func() {
		if n, corrupt, err := col.IngestStream(bytes.NewReader(blob), 0); err != nil || corrupt != 0 || n != 1024 {
			t.Fatalf("ingest: n=%d corrupt=%d err=%v", n, corrupt, err)
		}
	}
	ingest() // fill the reader pool and the vehicle's collector state
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("IngestStream: %d B/call", perCall)
	if perCall >= 16<<10 {
		t.Errorf("IngestStream allocates %d B per call, want < 16 KiB", perCall)
	}
}

// TestAllocGuardCheckpointEncode pins the pooled checkpoint encoder: a
// warm Engine.Checkpoint into a reused buffer allocates under 1 KiB per
// call. What remains is the subsystems' own sorting scratch; the stream
// buffers are recycled instead of regrown from empty on every call. The
// bound holds for the median call: a sync.Pool may miss now and then (a
// GC empties it, or the goroutine moves to another P), and each miss
// grows one fresh encoder.
func TestAllocGuardCheckpointEncode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{}, frettingConnector)
	sys.Cluster.RunRounds(context.Background(), 2000)
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm the encoder pool and the buffer
	perCall := make([]uint64, 15)
	for i := range perCall {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encode()
		runtime.ReadMemStats(&after)
		perCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perCall)
	median := perCall[len(perCall)/2]
	t.Logf("Checkpoint: median %d B/call (max %d) for a %d B stream", median, perCall[len(perCall)-1], buf.Len())
	if median >= 1<<10 {
		t.Errorf("Checkpoint allocates %d B per call (median), want < 1 KiB", median)
	}
}

// allocatedBytes returns the heap bytes allocated while fn runs.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocGuardChunkedResume pins the checkpoint→restore round trip of a
// chunked run: a 3000-round vehicle under a permanent fault, checkpointed
// and restored into a fresh engine every 100 rounds. The median round
// trip may allocate at most restoreBytesPerStreamByte times its
// checkpoint stream's length: the rebuilt engine plus the restored state,
// with the stream read in place and the encoder pooled. A stream copied
// per chunk (measured 4.4) or an encoder regrown per chunk (8.7) breaks
// the bound. The whole chunked run may allocate no more than it did with
// unsegmented stores.
func TestAllocGuardChunkedResume(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-round chunked run in -short mode")
	}
	const (
		seed, rounds, chunk = 20050404, 3000, 100
		// Measured 3.29 on amd64 (3.78 with unsegmented stores).
		restoreBytesPerStreamByte = 3.6
		// The least the unsegmented stores allocated here in three runs on
		// amd64 (6.24 MB measured since).
		maxChunkedBytes = 6_840_000
	)
	round := scenario.Fig10(seed, diagnosis.Options{}, nil).Cluster.Cfg.RoundDuration().Micros()
	plan := []scenario.InjectPlan{{Kind: scenario.KindPermanent, At: sim.Time(chunk / 2 * round)}}
	var ck bytes.Buffer
	var perTrip []float64 // bytes per stream byte, one per round trip
	run := func() uint64 {
		perTrip = perTrip[:0]
		return allocatedBytes(func() {
			sys := scenario.Fig10(seed, diagnosis.Options{}, plan)
			for ran := int64(chunk); ran < rounds; ran += chunk {
				sys.Cluster.RunRounds(context.Background(), chunk)
				trip := allocatedBytes(func() {
					ck.Reset()
					if err := sys.Checkpoint(&ck); err != nil {
						t.Fatal(err)
					}
					sys = scenario.Fig10(seed, diagnosis.Options{}, plan, engine.WithRestore(ck.Bytes()))
				})
				perTrip = append(perTrip, float64(trip)/float64(ck.Len()))
			}
			sys.Cluster.RunRounds(context.Background(), rounds-sys.StateVersion())
		})
	}
	// With the collector off, no GC empties the encoder pool mid-run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the encoder pool and the checkpoint buffer
	total := run()
	slices.Sort(perTrip)
	median := perTrip[len(perTrip)/2]
	t.Logf("chunked run: %d B; median round trip %.2f B per stream byte (%.2f to %.2f over %d)",
		total, median, perTrip[0], perTrip[len(perTrip)-1], len(perTrip))
	if median > restoreBytesPerStreamByte {
		t.Errorf("the median checkpoint round trip allocates %.2f B per stream byte, want <= %.1f", median, restoreBytesPerStreamByte)
	}
	if total > maxChunkedBytes {
		t.Errorf("chunked run allocates %d B, want <= %d", total, maxChunkedBytes)
	}
}

// TestAllocGuardBoundedStores pins the growth-free stores: a Fig. 10
// vehicle under a permanent fault, run past both retention bounds (1200
// granules of symptom history, 4096 actuator commands), must allocate no
// more per round over a later 2000-round span than over an earlier one,
// and stay under an absolute per-round cap. Symptom windows, actuator
// histories and event-port payloads then cost nothing per round; what
// remains is the adviser's trust history and the per-round scratch.
func TestAllocGuardBoundedStores(t *testing.T) {
	if testing.Short() {
		t.Skip("8500-round run in -short mode")
	}
	const (
		span = 2000
		// Measured 42, then 2 B/round on amd64. With any one store
		// reverted to a plain slice it was 86 to 484.
		maxBytesPerRound = 80
	)
	// Component 0 hosts the speed sensor: once it is silent, the control
	// job keeps commanding the brake from the last speed it received.
	sys := scenario.Fig10(20050404, diagnosis.Options{}, []scenario.InjectPlan{
		{At: scenario.RoundsAt(10), Fault: &pack.FaultSpec{Kind: "permanent-silent", Component: 0}},
	})
	sys.Cluster.RunRounds(context.Background(), 4500) // past 1200 granules and 4096 actuations
	if n := len(sys.Cluster.Env.Actuations("brake")); n != 4096 {
		t.Fatalf("brake history holds %d commands after 4500 rounds, want the 4096 cap", n)
	}
	perRound := func() float64 {
		return float64(allocatedBytes(func() { sys.Cluster.RunRounds(context.Background(), span) })) / span
	}
	early, late := perRound(), perRound()
	t.Logf("bytes/round past the retention bounds: %.1f, then %.1f", early, late)
	if late > early {
		t.Errorf("a later span allocates %.1f B/round, an earlier one %.1f: a bounded store is growing", late, early)
	}
	if early > maxBytesPerRound || late > maxBytesPerRound {
		t.Errorf("steady rounds allocate %.1f and %.1f B/round, want <= %d", early, late, maxBytesPerRound)
	}
}

// TestAllocGuardWarmVehicle pins worker engine reuse: a campaign worker
// builds its engine once and resets it in place for every later vehicle
// (engine.Engine.Reset), so a warm worker's second 300-round Fig. 10
// vehicle under the Bayesian stage — the Monte Carlo workload's shape —
// may allocate at most maxWarmRatio of the bytes its first vehicle
// (build plus run) allocated. The second vehicle runs another seed and
// the same fault kind, activating at the same instant.
func TestAllocGuardWarmVehicle(t *testing.T) {
	const (
		seed, rounds = 20050404, 300
		maxWarmRatio = 0.2
	)
	round := scenario.Fig10(seed, diagnosis.Options{}, nil).Cluster.Cfg.RoundDuration().Micros()
	horizon := sim.Time(rounds * round)
	plan := []scenario.InjectPlan{{Kind: scenario.KindIntermittent, At: horizon / 5}}
	var sys *engine.Engine
	first := allocatedBytes(func() {
		sys = scenario.Fig10(seed, diagnosis.Options{}, plan, engine.WithClassifier(bayes.New()))
		sys.Cluster.RunRounds(context.Background(), rounds)
	})
	second := allocatedBytes(func() {
		if err := sys.Reset(engine.WithSeed(seed+7919), scenario.PlanFaults(plan)); err != nil {
			t.Fatal(err)
		}
		sys.Cluster.RunRounds(context.Background(), rounds)
	})
	ratio := float64(second) / float64(first)
	t.Logf("first vehicle %d B, warm second vehicle %d B (%.3fx)", first, second, ratio)
	if ratio > maxWarmRatio {
		t.Errorf("a warm worker's second vehicle allocates %.3fx its first, want <= %.1fx", ratio, maxWarmRatio)
	}
}

// fastest returns the shortest of three timings: the one least disturbed
// by other load on the host.
func fastest(timing func() time.Duration) time.Duration {
	best := timing()
	for i := 0; i < 2; i++ {
		best = min(best, timing())
	}
	return best
}

// TestBinaryIngestRatio pins the binary trace codec's reason to exist:
// on one fleet corpus, in-process trace decode and collector ingest
// (decode plus warranty fold) must each process at least 5x the events
// per second from the binary encoding that they do from NDJSON.
func TestBinaryIngestRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	events := syntheticFleetEvents(32, 256)
	ndjson := encodeTraceBlob(t, events, trace.FormatNDJSON)
	binary := encodeTraceBlob(t, events, trace.FormatBinary)

	decode := func(blob []byte) time.Duration {
		start := time.Now()
		rd, _ := trace.OpenReader(bytes.NewReader(blob))
		n := 0
		if err := rd.ReadAll(func(trace.Event) { n++ }); err != nil || n != len(events) {
			t.Fatalf("decode: %d of %d events, err %v", n, len(events), err)
		}
		return time.Since(start)
	}
	ingest := func(blob []byte) time.Duration {
		start := time.Now()
		n, corrupt, err := warranty.NewCollector(0).IngestStream(bytes.NewReader(blob), 0)
		if err != nil || corrupt != 0 || n != len(events) {
			t.Fatalf("ingest: n=%d corrupt=%d err=%v", n, corrupt, err)
		}
		return time.Since(start)
	}
	for _, path := range []struct {
		name string
		run  func([]byte) time.Duration
	}{{"decode", decode}, {"ingest", ingest}} {
		nd := fastest(func() time.Duration { return path.run(ndjson) })
		bin := fastest(func() time.Duration { return path.run(binary) })
		ratio := float64(nd) / float64(bin)
		t.Logf("%s %d events: ndjson %v, binary %v (%.1fx)", path.name, len(events), nd, bin, ratio)
		if ratio < 5 {
			t.Errorf("binary %s runs %.1fx the NDJSON events/sec, want >= 5x", path.name, ratio)
		}
	}
}
