package decos

// One benchmark per paper figure (experiments E1–E13 of DESIGN.md) and per
// ablation (A1–A5), plus micro-benchmarks of the load-bearing machinery.
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"decos/internal/bayes"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/experiments"
	"decos/internal/faults"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/tt"
	"decos/internal/vnet"
	"decos/internal/warranty"
)

const benchSeed = 20050404

// --- One benchmark per figure -------------------------------------------

func BenchmarkE1CoreServices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E1CoreServices(benchSeed); r.Metrics["membership_agree"] != 1 {
			b.Fatal("core services failed")
		}
	}
}

func BenchmarkE2Chain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E2Chain(benchSeed); r.Metrics["accuracy"] < 0.8 {
			b.Fatal("chain accuracy collapsed")
		}
	}
}

func BenchmarkE3Bathtub(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E3Bathtub(benchSeed); r.Metrics["bathtub_shape_ok"] != 1 {
			b.Fatal("bathtub shape broken")
		}
	}
}

func BenchmarkE4Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E4Patterns(benchSeed); r.Metrics["wearout_rise"] < 1.5 {
			b.Fatal("pattern signatures broken")
		}
	}
}

func BenchmarkE5Trust(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E5Trust(benchSeed); r.Metrics["fig9_shape_ok"] != 1 {
			b.Fatal("trust trajectories broken")
		}
	}
}

func BenchmarkE6Judgment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E6Judgment(benchSeed); r.Metrics["tmr_masked"] != 1 {
			b.Fatal("judgment broken")
		}
	}
}

func BenchmarkE7Actions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E7Actions(benchSeed); r.Metrics["action_accuracy"] < 0.7 {
			b.Fatal("action accuracy collapsed")
		}
	}
}

func BenchmarkE8NFF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E8NFF(benchSeed)
		if r.Metrics["decos_action_acc"] <= r.Metrics["obd_action_acc"] {
			b.Fatal("NFF comparison inverted")
		}
	}
}

func BenchmarkE9MultiFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9MultiFault(benchSeed)
	}
}

func BenchmarkE10Scale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10Scale(benchSeed)
	}
}

func BenchmarkE11Repair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E11RepairLoop(benchSeed); r.Metrics["decos_fix_rate"] < 0.8 {
			b.Fatal("repair effectiveness collapsed")
		}
	}
}

func BenchmarkE12Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E12Robustness(benchSeed); r.Metrics["overall"] < 0.8 {
			b.Fatal("robustness collapsed")
		}
	}
}

func BenchmarkA1WindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A1WindowSweep(benchSeed)
	}
}

func BenchmarkA2AlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A2AlphaSweep(benchSeed)
	}
}

func BenchmarkA3Encapsulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A3Encapsulation(benchSeed)
	}
}

func BenchmarkA4QueueSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A4QueueSweep(benchSeed)
	}
}

func BenchmarkA5DiagBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A5DiagBandwidth(benchSeed)
	}
}

// --- Micro-benchmarks of the substrate ----------------------------------

// BenchmarkSchedulerThroughput measures raw discrete-event dispatch.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, "e", func() {})
		s.Step()
	}
}

// BenchmarkRNG measures the xoshiro stream.
func BenchmarkRNG(b *testing.B) {
	r := sim.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// BenchmarkMessageRoundtrip measures the VN hot path for one TDMA slot:
// pack two state messages into the sender's frame and deliver the frame to
// the four receivers of a Fig. 10-sized bus, the sender among them, as
// the broadcast medium does: one reception for the whole slot.
func BenchmarkMessageRoundtrip(b *testing.B) {
	f, n := fanoutFabric(b)
	per := fanoutStatuses(tt.FrameOK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanoutSlot(f, n, int64(i), per)
	}
}

// fanoutFabric wires a Fig. 10-sized broadcast: four nodes, node 0
// producing a state channel every node (itself included) subscribes to
// and a diagnostic-range channel (diagnosis.Options' default
// DiagChannelBase) that node 3 reads.
func fanoutFabric(tb testing.TB) (*vnet.Fabric, *vnet.Network) {
	tb.Helper()
	f := vnet.NewFabric(tt.UniformSchedule(4, 250, 64), sim.NewRNG(1))
	n := vnet.NewNetwork("bench", vnet.TimeTriggered, "x")
	for node := tt.NodeID(0); node < 4; node++ {
		n.AddEndpoint(node, 40, 0)
	}
	n.DeclareChannel(1, 0)
	n.DeclareChannel(60000, 0)
	f.AddNetwork(n)
	for node := tt.NodeID(0); node < 4; node++ {
		f.Subscribe(node, 1, 0, true)
	}
	f.Subscribe(3, 60000, 0, true)
	if err := f.Seal(); err != nil {
		tb.Fatal(err)
	}
	return f, n
}

var (
	fanoutValue   = vnet.FloatPayload(3.14)
	fanoutPowered = []bool{true, true, true, true}
)

// fanoutStatuses returns the statuses of a slot all four receivers of a
// fanoutFabric get with status st.
func fanoutStatuses(st tt.FrameStatus) []tt.FrameStatus {
	return []tt.FrameStatus{st, st, st, st}
}

// fanoutSlot runs one slot of round i on a fanoutFabric: node 0 publishes
// and builds its frame, and the four powered nodes receive it, each with
// its status in per (a corrupted copy has two bits flipped).
func fanoutSlot(f *vnet.Fabric, n *vnet.Network, i int64, per []tt.FrameStatus) {
	now := sim.Time(i)
	n.Send(1, fanoutValue, now)
	n.Send(60000, fanoutValue, now)
	fr := tt.Frame{Round: i, Sender: 0, At: now, Payload: f.BuildPayload(0), Status: per[0], CorruptBits: 2}
	f.ConsumeSlot(&fr, per, fanoutPowered)
}

// BenchmarkClusterRound measures one full TDMA round of the Fig. 10 system
// including jobs, virtual networks and diagnostics.
func BenchmarkClusterRound(b *testing.B) {
	sys := scenario.Fig10(benchSeed, diagnosis.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(int64(b.N))
}

// BenchmarkClusterRoundUnderFault measures round cost with an active
// connector fault (symptom traffic flowing).
func BenchmarkClusterRoundUnderFault(b *testing.B) {
	sys := scenario.Fig10(benchSeed, diagnosis.Options{})
	sys.Injector.ConnectorTx(0, 0, 0, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(int64(b.N))
}

// BenchmarkBayesRound measures one full TDMA round with the Bayesian
// classification stage swapped in for the DECOS heuristic chain. The
// interesting comparison is against BenchmarkClusterRound: the delta is
// the per-round cost of maintaining per-FRU posteriors.
func BenchmarkBayesRound(b *testing.B) {
	sys := scenario.Fig10With(benchSeed, diagnosis.Options{},
		engine.WithClassifier(bayes.New()))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(int64(b.N))
}

// BenchmarkAssessorEpoch measures one ONA-suite evaluation over a loaded
// history.
func BenchmarkAssessorEpoch(b *testing.B) {
	sys := scenario.Fig10(benchSeed, diagnosis.Options{})
	sys.Injector.ConnectorTx(0, 0, 0, 0.3)
	sys.Run(2000)
	a := sys.Diag.Assessor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.EvaluateNow(2000+int64(i), sim.Time(i))
	}
}

// BenchmarkBathtubSample measures lifetime sampling.
func BenchmarkBathtubSample(b *testing.B) {
	m := faults.AutomotiveECU()
	r := sim.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.SampleLifetime(r)
	}
	_ = sink
}

// BenchmarkE13FleetWarranty times the full warranty round trip: traced
// campaign → binary trace ingest → fleet summary, asserting exact agreement
// with the in-process audit.
func BenchmarkE13FleetWarranty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E13FleetWarranty(benchSeed); r.Metrics["agree"] != 1 {
			b.Fatal("warranty summary diverged from in-process audit")
		}
	}
}

// BenchmarkWarrantyIngest measures collector ingest throughput from all
// CPUs, single-stripe (every vehicle contends on one mutex) versus the
// default striping — the scaling claim behind sharding by vehicle.
func BenchmarkWarrantyIngest(b *testing.B) {
	events := syntheticFleetEvents(64, 256)
	for _, shards := range []int{1, warranty.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := warranty.NewCollector(shards)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Ingest(events[int(next.Add(1))%len(events)])
				}
			})
		})
	}
}

// syntheticFleetEvents builds a realistic event mix (frames, symptoms,
// verdicts, trust samples) spread over the given number of vehicles.
func syntheticFleetEvents(vehicles, perVehicle int) []trace.Event {
	tr := 0.8
	var out []trace.Event
	for v := 1; v <= vehicles; v++ {
		for i := 0; i < perVehicle; i++ {
			e := trace.Event{T: int64(i) * 10_000, Vehicle: v}
			fru := core.HardwareFRU(i % 4).String()
			switch i % 8 {
			case 0, 1, 2, 3:
				e.Kind = "frame"
				e.Subject = fru
				e.Detail = "ok"
			case 4, 5:
				e.Kind = "symptom"
				e.Subject = fru
				e.Symptom = "omission"
				e.Count = 1
			case 6:
				e.Kind = "verdict"
				e.Subject = fru
				e.Class = core.ComponentBorderline.String()
				e.Pattern = "connector-intermittent"
				e.Conf = 0.9
				e.Action = core.ActionInspectConnector.String()
			case 7:
				e.Kind = "trust"
				e.Subject = fru
				e.Trust = &tr
			}
			out = append(out, e)
		}
	}
	return out
}

// BenchmarkAlphaCount measures the α-count update path.
func BenchmarkAlphaCount(b *testing.B) {
	a := diagnosis.NewAlphaCount(0.9, 2.5)
	for i := 0; i < b.N; i++ {
		a.Step(diagnosis.FRUIndex(i%16), i%3 == 0, 1)
	}
}

// encodeTraceBlob renders events as one complete stream in the format.
func encodeTraceBlob(tb testing.TB, events []trace.Event, f trace.Format) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sink := trace.NewSink(&buf, f)
	for i := range events {
		if err := sink.Record(&events[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTraceDecode is the in-process decode cost per event — the
// number the binary codec exists to shrink. One op decodes one event;
// the ns/op ratio between the sub-benchmarks is the encoding speedup
// (TestBinaryIngestRatio gates binary at ≥5x the NDJSON events/sec).
func BenchmarkTraceDecode(b *testing.B) {
	events := syntheticFleetEvents(64, 256)
	for _, f := range []trace.Format{trace.FormatNDJSON, trace.FormatBinary} {
		blob := encodeTraceBlob(b, events, f)
		b.Run("format="+f.String(), func(b *testing.B) {
			b.SetBytes(int64(len(blob) / len(events)))
			b.ReportAllocs()
			b.ResetTimer()
			var rd trace.EventReader
			decoded := 0
			for i := 0; i < b.N; i++ {
				if rd == nil {
					rd, _ = trace.OpenReader(bytes.NewReader(blob))
				}
				if _, err := rd.Next(); err != nil {
					b.Fatal(err)
				}
				if decoded++; decoded == len(events) {
					rd, decoded = nil, 0 // stream drained: start over
				}
			}
		})
	}
}

// BenchmarkIngest is the full in-process ingest path per event — stream
// decode plus collector fold — from either encoding. The warranty state
// is identical afterwards whichever sub-benchmark built it.
func BenchmarkIngest(b *testing.B) {
	events := syntheticFleetEvents(64, 256)
	for _, f := range []trace.Format{trace.FormatNDJSON, trace.FormatBinary} {
		blob := encodeTraceBlob(b, events, f)
		b.Run("format="+f.String(), func(b *testing.B) {
			c := warranty.NewCollector(0)
			b.SetBytes(int64(len(blob) / len(events)))
			b.ReportAllocs()
			b.ResetTimer()
			decoded := 0
			for decoded < b.N {
				n, corrupt, err := c.IngestStream(bytes.NewReader(blob), 0)
				if err != nil || corrupt != 0 || n != len(events) {
					b.Fatalf("ingest: n=%d corrupt=%d err=%v", n, corrupt, err)
				}
				decoded += n
			}
		})
	}
}

// --- Checkpoint machinery (PR 8) ----------------------------------------

// checkpointGrid builds the 100-component (one hardware FRU each) grid
// cluster the checkpoint benchmarks measure, advanced far enough that
// histories, trust records and port statistics are populated.
func checkpointGrid(extra ...engine.Option) *scenario.System {
	sys := scenario.GridWith(100, benchSeed, diagnosis.Options{}, extra...)
	if len(extra) == 0 {
		sys.Run(500)
	}
	return sys
}

// BenchmarkCheckpoint measures encoding the complete state of a 100-FRU
// cluster mid-run; the "ckpt-bytes" metric is the encoded size.
func BenchmarkCheckpoint(b *testing.B) {
	sys := checkpointGrid()
	var buf bytes.Buffer
	if err := sys.Engine.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.Engine.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
}

// BenchmarkRestore measures rebuilding the same 100-FRU cluster from its
// checkpoint: full reconstruction (build pipeline at t=0) plus state
// overwrite and re-arm.
func BenchmarkRestore(b *testing.B) {
	var buf bytes.Buffer
	if err := checkpointGrid().Engine.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := checkpointGrid(engine.WithRestore(data))
		if v := sys.Engine.StateVersion(); v != 500 {
			b.Fatalf("restored StateVersion = %d, want 500", v)
		}
	}
	b.ReportMetric(float64(len(data)), "ckpt-bytes")
}
