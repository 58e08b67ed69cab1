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
	"sync"
	"testing"
	"time"

	"decos/internal/diagnosis"
	"decos/internal/engine"
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
// per-epoch garbage. The ratio tests at the end pin two throughput
// claims that compare two cases timed in the same process, so host speed
// cancels out of them.

// nullController is the cheapest possible TT controller: a fixed frame, no
// reaction to traffic.
type nullController struct{ payload []byte }

func (c *nullController) BuildFrame(round int64, slot int) []byte { return c.payload }
func (c *nullController) OnSlot(f tt.Frame, st tt.FrameStatus)    {}
func (c *nullController) OnRoundEnd(round int64)                  {}

// TestAllocGuardBusSlot drives a bare 4-node bus and requires at most 2
// allocations per TDMA slot in steady state (the pooled slot event and the
// bus scratch make the expected count 0).
func TestAllocGuardBusSlot(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := tt.UniformSchedule(4, 250*sim.Microsecond, 32)
	bus := tt.NewBus(cfg, sched)
	for i := 0; i < 4; i++ {
		bus.Attach(tt.NodeID(i), &nullController{payload: []byte{byte(i)}})
	}
	bus.Start()

	const roundsPerRun = 512
	slotsPerRun := roundsPerRun * len(cfg.Slots)
	roundUS := cfg.RoundDuration().Micros()
	var until sim.Time
	run := func() {
		until += sim.Time(roundsPerRun * roundUS)
		sched.RunUntil(until)
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
// steady state, for intact and for corrupted frames: the frame is decoded
// once per slot into fabric-owned scratch, and a corrupted frame's damaged
// copy lives there too instead of being allocated at every receiver.
func TestAllocGuardFrameFanout(t *testing.T) {
	for _, st := range []tt.FrameStatus{tt.FrameOK, tt.FrameCorrupted} {
		f, n := fanoutFabric(t)
		const slotsPerRun = 256
		var round int64
		run := func() {
			for i := 0; i < slotsPerRun; i++ {
				fanoutSlot(f, n, round, st)
				round++
			}
		}
		run() // size the frame, decode and port scratch
		allocs := testing.AllocsPerRun(5, run)
		t.Logf("%s frame fan-out: %.4f allocs/slot", st, allocs/slotsPerRun)
		if allocs != 0 {
			t.Errorf("%s frame fan-out allocates %.2f objects per %d slots, want 0", st, allocs, slotsPerRun)
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
	sys := scenario.Fig10(20050404, diagnosis.Options{})
	sys.Injector.ConnectorTx(0, 0, 0, 0.3)
	sys.Run(2000)
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
		sys := scenario.Fig10With(20050404, diagnosis.Options{}, extra...)
		sys.Run(200) // warm pools, scratch and trust histories
		const roundsPerRun = 64
		allocs := testing.AllocsPerRun(5, func() { sys.Run(roundsPerRun) })
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
	sys := scenario.Fig10(20050404, diagnosis.Options{})
	sys.Run(200) // warm pools, scratch and trust histories
	const roundsPerRun = 64
	allocs := testing.AllocsPerRun(5, func() { sys.Run(roundsPerRun) })
	perRound := allocs / roundsPerRun
	t.Logf("bayes-off cluster round: %.3f allocs/round", perRound)
	if perRound > 3 {
		t.Errorf("default cluster round allocates %.3f objects/round, want <= 3 (the pre-bayes baseline)", perRound)
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

	blob := encodeTraceBlob(t, events, trace.FormatBinary)
	rd := trace.NewBinaryReader(bytes.NewReader(blob))
	const perRun = 1024
	decodeRun := func() {
		for i := 0; i < perRun; i++ {
			if _, err := rd.Next(); err != nil {
				t.Fatalf("event %d: %v", rd.Records(), err)
			}
		}
	}
	decodeRun()                    // warm the intern table and payload scratch
	runs := len(events)/perRun - 2 // stay clear of EOF
	if allocs := testing.AllocsPerRun(runs, decodeRun); allocs != 0 {
		t.Errorf("binary decode allocates %.0f times per %d events, want 0", allocs, perRun)
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
// on one fleet corpus, single-peer trace decode and collector ingest
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

// TestClusterShardScaling pins the sharding claim in the latency-bound
// regime BenchmarkClusterIngest models: uplinking one fixed corpus to 4
// shards must deliver at least 2x the events/sec of 1 shard. Every
// timing runs against freshly started peers, so the ring's placement of
// the corpus varies between the three samples of the 4-shard side.
func TestClusterShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	traces := clusterCorpus(32)
	uplink := func(peers int) time.Duration {
		client := latencyBoundClient(t, peers)
		jobs := make(chan int, len(traces))
		for v := range traces {
			jobs <- v
		}
		close(jobs)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < uplinkWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range jobs {
					if err := client.AddTrace(context.Background(), v+1, traces[v]); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	one := fastest(func() time.Duration { return uplink(1) })
	four := fastest(func() time.Duration { return uplink(4) })
	ratio := float64(one) / float64(four)
	t.Logf("%d traces: 1 shard %v, 4 shards %v (%.1fx)", len(traces), one, four, ratio)
	if ratio < 2 {
		t.Errorf("4 shards deliver %.1fx the events/sec of 1, want >= 2x", ratio)
	}
}
