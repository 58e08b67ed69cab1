package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"decos/internal/maintenance"
	"decos/internal/scenario"
	"decos/internal/warranty"
)

// smokeScale shrinks every workload to two vehicles. Smoke runs leave
// config.setupBudget zero, so they set up only minSetups times.
const smokeScale = 0.01

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []metric) []specMetric {
	var out []specMetric
	for _, m := range ms {
		out = append(out, specMetric{m.Name, m.Unit})
	}
	return out
}

func sameMetrics(t *testing.T, what string, got, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s metric %d: printed %v, BENCHMARK.json lists %v", what, i, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload at two vehicles: no op may fail, and the
// printed metrics must be exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, s.Workloads[i].Name, w.name)
		}
		rep, err := run(config{workload: w.name, seed: defaultSeed, scale: smokeScale}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < minBatches {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, rep.Correct, rep.Failed, rep.Attempted)
		}
		sameMetrics(t, w.name, names(rep.Metrics), s.EndToEnd)
		for _, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics must be positive", w.name, m.Name, m.Value)
			}
		}
	}
	rep, err := run(config{workload: "warranty", seed: defaultSeed, scale: smokeScale, trace: true,
		profileDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "traced warranty", names(rep.Metrics), s.PerLayer)
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var last struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct{ Value, Unit any }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(s.PerLayer) {
		t.Errorf("result object incomplete: %s", lines[len(lines)-1])
	}
}

// tinyCampaign is a two-vehicle traced E13 run and its summary.
func tinyCampaign(t *testing.T) (*scenario.CampaignResult, *warranty.Summary) {
	t.Helper()
	c := newPlan(defaultSeed, 2, rounds)[0]
	col := warranty.NewCollector(0)
	res := c.RunTraced(func(v int, ndjson []byte) {
		if _, _, err := col.IngestStream(bytes.NewReader(ndjson), 0); err != nil {
			t.Error(err)
		}
	})
	return res, col.Summary(0)
}

// TestTamperedResultFails checks that each oracle rejects a result with
// one value changed and that a rejected batch fails every op in it.
func TestTamperedResultFails(t *testing.T) {
	res, sum := tinyCampaign(t)
	if err := e13Agree(sum, res, 2); err != nil {
		t.Fatalf("untouched result: %v", err)
	}
	sum.Fleet.Incidents++
	if e13Agree(sum, res, 2) == nil {
		t.Error("E13 oracle accepted a summary with an extra incident")
	}
	sum.Fleet.Incidents--

	want := canonical(res)
	res.OBDFalseAlarms++
	if bytes.Equal(canonical(res), want) {
		t.Error("resume oracle accepted a result with an extra false alarm")
	}

	shape := &scenario.CampaignResult{
		DECOS: &maintenance.Report{NFFRemovals: 2, TotalRemovals: 4},
		OBD:   &maintenance.Report{NFFRemovals: 1, TotalRemovals: 4},
	}
	if e8Shape([]*scenario.CampaignResult{shape}) == nil {
		t.Error("E8 oracle accepted DECOS with more no-fault-found removals than OBD")
	}
	if allReplicates(&scenario.MonteCarloResult{Replicates: replicates, Completed: replicates - 1}) == nil {
		t.Error("Monte Carlo oracle accepted a missing replicate")
	}

	ups, ref, err := recordIngest(defaultSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b := ingestPass(ups, ref, &tracer{}); b.err != nil {
		t.Fatalf("untouched ingest pass: %v", b.err)
	}
	tampered := append([]byte(nil), ref...)
	tampered[len(tampered)/2] ^= 1
	b := ingestPass(ups, tampered, &tracer{})
	if b.err == nil {
		t.Fatal("ingest oracle accepted a pass against a changed reference summary")
	}
	var tl tally
	tl.add(b)
	if tl.failed != len(b.lat) || tl.failed == 0 {
		t.Errorf("rejected pass counted %d of %d ops failed", tl.failed, len(b.lat))
	}
}

// TestPlanProportions checks the fleet split: every vehicle planned once,
// a fifth fault-free, even campaigns, the largest DefaultMix kind largest.
func TestPlanProportions(t *testing.T) {
	for _, n := range []int{2, 40, 80, 150, 200} {
		p := newPlan(defaultSeed, n, rounds)
		total, free := 0, 0
		for _, c := range p {
			if c.Vehicles <= 0 || c.Vehicles%2 != 0 {
				t.Errorf("n=%d: campaign of %d vehicles", n, c.Vehicles)
			}
			total += c.Vehicles
			if c.FaultFreeShare == 1 {
				free += c.Vehicles
			}
		}
		if total != n+n%2 {
			t.Errorf("n=%d: %d vehicles planned", n, total)
		}
		if n >= 40 && (free < n/5-1 || free > n/5+1) {
			t.Errorf("n=%d: %d fault-free vehicles", n, free)
		}
	}
	p := newPlan(defaultSeed, 200, rounds)
	// 80 faulty pairs × 0.16/1.06 of the mix = 12.08 pairs of EMI.
	if emi := p[1]; emi.Mix[scenario.KindEMI] != 1 || emi.Vehicles != 24 {
		t.Errorf("200 vehicles: first fault campaign %v with %d vehicles, want 24 EMI", emi.Mix, emi.Vehicles)
	}
}

// TestDigestMismatchFailsEveryOp checks the tally's digest rule.
func TestDigestMismatchFailsEveryOp(t *testing.T) {
	tl := tally{want: "a"}
	op := func(digest string) batch {
		return batch{lat: []time.Duration{1, 2}, digest: digest}
	}
	tl.add(op("a"))
	tl.add(op("b"))
	tl.add(batch{lat: []time.Duration{1}, digest: "a", err: errors.New("oracle")})
	if tl.attempted != 5 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
}
