package warranty

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"decos/internal/scenario"
)

// campaignTraces runs one small traced campaign and returns the per-vehicle
// binary trace streams, keyed 1-based as the campaign emits them.
func campaignTraces(t testing.TB, vehicles int, rounds int64) map[int][]byte {
	t.Helper()
	traces := make(map[int][]byte)
	var mu sync.Mutex
	c := scenario.Campaign{
		Vehicles:       vehicles,
		Rounds:         rounds,
		Seed:           20050404,
		FaultFreeShare: 0.25,
	}
	c.RunTraced(func(v int, blob []byte) {
		mu.Lock()
		defer mu.Unlock()
		traces[v] = append([]byte(nil), blob...)
	})
	if len(traces) != vehicles {
		t.Fatalf("got %d traces, want %d", len(traces), vehicles)
	}
	return traces
}

// ingestSequential feeds every vehicle stream one after the other.
func ingestSequential(t testing.TB, c *Collector, traces map[int][]byte) {
	t.Helper()
	for v := 1; v <= len(traces); v++ {
		if _, _, err := c.IngestStream(bytes.NewReader(traces[v]), 0); err != nil {
			t.Fatalf("vehicle %d: %v", v, err)
		}
	}
}

// TestConcurrentIngestDeterminism is the DESIGN §4.2 determinism check at
// the fleet backend: 16 goroutines ingesting disjoint vehicles into a
// sharded collector must produce aggregates bit-identical to a sequential
// single-shard ingest. Run under -race.
func TestConcurrentIngestDeterminism(t *testing.T) {
	traces := campaignTraces(t, 32, 600)

	seq := NewCollector(1)
	ingestSequential(t, seq, traces)

	conc := NewCollector(16)
	const goroutines = 16
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range work {
				if _, _, err := conc.IngestStream(bytes.NewReader(traces[v]), 0); err != nil {
					t.Errorf("vehicle %d: %v", v, err)
				}
			}
		}()
	}
	// Scatter vehicles across goroutines in a scrambled order.
	for v := len(traces); v >= 1; v-- {
		work <- v
	}
	close(work)
	wg.Wait()

	sumSeq := seq.Summary(0)
	sumConc := conc.Summary(0)
	if !reflect.DeepEqual(sumSeq, sumConc) {
		a, _ := json.MarshalIndent(sumSeq, "", " ")
		b, _ := json.MarshalIndent(sumConc, "", " ")
		t.Fatalf("concurrent summary differs from sequential:\nsequential:\n%s\nconcurrent:\n%s", a, b)
	}
	if seq.Events() != conc.Events() || seq.Frames() != conc.Frames() || seq.Vehicles() != conc.Vehicles() {
		t.Fatalf("counters differ: events %d/%d frames %d/%d vehicles %d/%d",
			seq.Events(), conc.Events(), seq.Frames(), conc.Frames(), seq.Vehicles(), conc.Vehicles())
	}
	a, err := json.Marshal(seq.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(conc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("concurrent snapshot differs from sequential:\nsequential: %s\nconcurrent: %s", a, b)
	}
}

// TestSummaryMatchesInProcessAudit: the trace-fed audit must reproduce the
// in-process campaign audit exactly — NFF ratio, removals, cost, misses,
// false alarms and the 20-80 concentration, for both arms.
func TestSummaryMatchesInProcessAudit(t *testing.T) {
	col := NewCollector(8)
	c := scenario.Campaign{
		Vehicles:       40,
		Rounds:         800,
		Seed:           777,
		FaultFreeShare: 0.2,
	}
	res := c.RunTraced(func(v int, blob []byte) {
		if _, _, err := col.IngestStream(bytes.NewReader(blob), 0); err != nil {
			t.Errorf("vehicle %d: %v", v, err)
		}
	})

	s := col.Summary(0)
	if s.Vehicles != c.Vehicles {
		t.Fatalf("vehicles = %d, want %d", s.Vehicles, c.Vehicles)
	}
	if s.FaultFree != res.FaultFreeCount {
		t.Errorf("fault-free = %d, want %d", s.FaultFree, res.FaultFreeCount)
	}

	checkArm := func(name string, want *Arm, falseAlarms int) {
		t.Helper()
		got := s.Arms[name]
		if got == nil {
			t.Fatalf("arm %q missing from summary", name)
		}
		if *got != *want {
			t.Errorf("arm %q:\n got %+v\nwant %+v", name, got, want)
		}
		if got.FalseAlarms != falseAlarms {
			t.Errorf("arm %q false alarms = %d, want %d", name, got.FalseAlarms, falseAlarms)
		}
	}
	checkArm("decos", &Arm{
		Audited:        res.DECOS.Total,
		CorrectClass:   res.DECOS.CorrectClass,
		CorrectActions: res.DECOS.CorrectActions,
		ClassAccuracy:  res.DECOS.ClassAccuracy(),
		ActionAccuracy: res.DECOS.ActionAccuracy(),
		TotalRemovals:  res.DECOS.TotalRemovals,
		NFFRemovals:    res.DECOS.NFFRemovals,
		NFFRatio:       res.DECOS.NFFRatio(),
		Missed:         res.DECOS.Missed,
		MissRatio:      res.DECOS.MissRatio(),
		Cost:           res.DECOS.Cost,
		FalseAlarms:    res.DECOSFalseAlarms,
	}, res.DECOSFalseAlarms)
	checkArm("obd", &Arm{
		Audited:        res.OBD.Total,
		CorrectClass:   res.OBD.CorrectClass,
		CorrectActions: res.OBD.CorrectActions,
		ClassAccuracy:  res.OBD.ClassAccuracy(),
		ActionAccuracy: res.OBD.ActionAccuracy(),
		TotalRemovals:  res.OBD.TotalRemovals,
		NFFRemovals:    res.OBD.NFFRemovals,
		NFFRatio:       res.OBD.NFFRatio(),
		Missed:         res.OBD.Missed,
		MissRatio:      res.OBD.MissRatio(),
		Cost:           res.OBD.Cost,
		FalseAlarms:    res.OBDFalseAlarms,
	}, res.OBDFalseAlarms)

	if s.Fleet.Incidents != res.Fleet.Incidents() {
		t.Errorf("fleet incidents = %d, want %d", s.Fleet.Incidents, res.Fleet.Incidents())
	}
	if s.Fleet.Jobs != res.Fleet.Jobs() {
		t.Errorf("fleet jobs = %d, want %d", s.Fleet.Jobs, res.Fleet.Jobs())
	}
	if s.Fleet.Pareto20 != res.Fleet.Pareto(0.2) {
		t.Errorf("pareto = %v, want %v", s.Fleet.Pareto20, res.Fleet.Pareto(0.2))
	}
}

// TestCorruptStreamSurvives: a vehicle stream with mangled lines still
// contributes its decodable events.
func TestCorruptStreamSurvives(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"t_us":1,"kind":"vehicle","vehicle":3,"detail":"fault-free"}` + "\n")
	buf.WriteString("garbage line\n")
	buf.WriteString(`{"t_us":2,"kind":"symptom","vehicle":3,"symptom":"omission","subject":"component[1]","count":2}` + "\n")

	c := NewCollector(4)
	events, corrupt, err := c.IngestStream(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events != 2 || corrupt != 1 {
		t.Fatalf("events=%d corrupt=%d, want 2/1", events, corrupt)
	}
	s := c.Summary(0)
	if s.Vehicles != 1 || s.FaultFree != 1 || s.CorruptLines != 1 {
		t.Fatalf("summary %+v", s)
	}
}
