package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if again := r.Counter("a.count"); again != c {
		t.Error("Counter did not return the same handle on second lookup")
	}

	g := r.Gauge("a.gauge")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	if again := r.Gauge("a.gauge"); again != g {
		t.Error("Gauge did not return the same handle on second lookup")
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports Enabled")
	}
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(5)
	h.Observe(5)
	r.GaugeFunc("x", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil handles recorded values")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Error("nil registry snapshot is not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if got := buf.String(); got != "{}\n" {
		t.Errorf("nil WriteJSON = %q, want {}\\n", got)
	}
}

func TestDisabledPathAllocatesNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("disabled-path updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestEnabledUpdatesAllocateNothing(t *testing.T) {
	r := New()
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("enabled-path updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	// 100 observations at 100, one outlier at 1e9.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	h.Observe(1_000_000_000)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if s.Min != 100 || s.Max != 1_000_000_000 {
		t.Errorf("min/max = %d/%d, want 100/1000000000", s.Min, s.Max)
	}
	wantSum := int64(100*100 + 1_000_000_000)
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	// 100 is in bucket bits.Len64(100)=7, upper bound 2^7-1=127. The p50
	// estimate is that bucket's upper bound; p99 likewise (rank 100 of 101
	// still lands in the 100s bucket).
	if s.P50 != 127 {
		t.Errorf("p50 = %d, want 127", s.P50)
	}
	if s.P99 != 127 {
		t.Errorf("p99 = %d, want 127", s.P99)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("non-empty buckets = %d, want 2 (%v)", len(s.Buckets), s.Buckets)
	}
	if s.Buckets[0].Le != 127 || s.Buckets[0].Count != 100 {
		t.Errorf("bucket[0] = %+v, want {127 100}", s.Buckets[0])
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	r := New()
	h := r.Histogram("edge")
	h.Observe(0)
	h.Observe(-5) // clamped to 0
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Min != 0 {
		t.Errorf("min = %d, want 0", s.Min)
	}
	if s.Max != math.MaxInt64 {
		t.Errorf("max = %d, want MaxInt64", s.Max)
	}
	// Zero bucket holds two observations; p50 (rank 2 of 3) is zero.
	if s.P50 != 0 {
		t.Errorf("p50 = %d, want 0", s.P50)
	}
	// p99 lands in the top bucket; its upper bound is clamped to max.
	if s.P99 != math.MaxInt64 {
		t.Errorf("p99 = %d, want MaxInt64", s.P99)
	}
}

func TestQuantileClampedToObservedMax(t *testing.T) {
	r := New()
	h := r.Histogram("clamp")
	h.Observe(1000) // bucket upper bound 1023
	s := h.Snapshot()
	if s.P50 != 1000 || s.P99 != 1000 {
		t.Errorf("p50/p99 = %d/%d, want 1000/1000 (clamped to observed max)", s.P50, s.P99)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New()
	v := int64(0)
	r.GaugeFunc("depth", func() int64 { return v })
	v = 9
	s := r.Snapshot()
	if got := s.Gauges["depth"]; got != 9 {
		t.Errorf("computed gauge = %d, want 9", got)
	}
	// Registration under the same name replaces the function.
	r.GaugeFunc("depth", func() int64 { return 1 })
	if got := r.Snapshot().Gauges["depth"]; got != 1 {
		t.Errorf("re-registered gauge = %d, want 1", got)
	}
}

// TestSnapshotDeterminism checks the core contract for reproducible
// experiments: two registries fed identical update sequences serialize to
// byte-identical JSON, regardless of registration interleavings.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) []byte {
		r := New()
		for _, n := range order {
			r.Counter("count." + n)
		}
		for _, n := range order {
			r.Counter("count." + n).Add(int64(len(n)))
			r.Gauge("gauge." + n).Set(42)
			r.Histogram("hist." + n).Observe(100)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ across registration orders:\n%s\n%s", a, b)
	}
	// And the JSON is valid.
	var s Snapshot
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if s.Counters["count.x"] != 1 || s.Gauges["gauge.z"] != 42 || s.Histograms["hist.y"].Count != 1 {
		t.Errorf("round-tripped snapshot lost values: %+v", s)
	}
}
