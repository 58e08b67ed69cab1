// Package telemetry is the self-observation layer of the reproduction: a
// stdlib-only metrics registry of atomic counters, gauges and fixed-bucket
// histograms that every pipeline stage — simulator, diagnosis, fleet
// ingestion — can publish into, the same way the DECOS diagnoser publishes
// out-of-norm assertions: cheap enough to leave on in production, silent
// when disabled.
//
// The disabled path is zero-overhead by the same sentinel pattern as
// trace.Sink's no-op: every method is nil-safe, so a nil *Registry hands
// out nil metric handles and a nil handle's Add/Set/Observe is a single
// branch with no stores, no allocation and no contention. Consumers hold
// the handle, not the registry:
//
//	rounds := reg.Counter("engine.rounds") // nil reg -> nil handle
//	...
//	rounds.Inc() // no-op when disabled, one atomic add when enabled
//
// Enabled metrics are safe for concurrent use. Snapshots are deterministic
// (sorted names, pure counter state), so two identical runs publish
// identical snapshots.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil counter
// discards updates and reads as zero.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil gauge discards updates
// and reads as zero.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (zero for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The zero value is not usable;
// construct with New. A nil *Registry is the disabled registry: every
// lookup returns a nil handle and Snapshot returns the empty snapshot.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]func() int64),
	}
}

// Enabled reports whether the registry records anything (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named counter, creating it on first use. A nil
// registry returns the nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns the nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns the nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a gauge computed at snapshot time — the bridge for
// state another subsystem already maintains (store sizes, queue depths).
// f must be safe to call from any goroutine; it replaces any previous
// function under the same name. A nil registry ignores the registration.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// Snapshot is a point-in-time copy of every metric, keyed by name.
// Computed gauges (GaugeFunc) appear alongside stored gauges. JSON
// marshalling is deterministic: encoding/json emits map keys sorted.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every metric. It is safe to call
// concurrently with metric updates; a nil registry returns the zero
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hists[n] = h
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.Unlock()

	// Values are read outside the lock: registration is frozen in the
	// copies above, and the reads themselves are atomic (or, for computed
	// gauges, delegated to the provider's own synchronization).
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for n, c := range counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(gauges) > 0 || len(funcs) > 0 {
		s.Gauges = make(map[string]int64, len(gauges)+len(funcs))
		for n, g := range gauges {
			s.Gauges[n] = g.Value()
		}
		for n, f := range funcs {
			s.Gauges[n] = f()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for n, h := range hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}
