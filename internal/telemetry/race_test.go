package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentWritersAndSnapshots hammers one registry from many
// goroutines — counter/gauge/histogram writers, handle lookups, and
// snapshotters — and checks the totals. Run under -race this is the
// package's data-race proof; the CI -race leg exists for this test.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	const (
		writers = 8
		perG    = 10_000
	)
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Handles looked up concurrently must converge on one metric.
			c := r.Counter("race.count")
			h := r.Histogram("race.hist")
			g := r.Gauge("race.gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Set(int64(w))
			}
		}(w)
	}
	// Concurrent snapshotters (the HTTP handler path).
	done := make(chan struct{})
	var snaps sync.WaitGroup
	for s := 0; s < 2; s++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	snaps.Wait()

	s := r.Snapshot()
	if got := s.Counters["race.count"]; got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	h := s.Histograms["race.hist"]
	if h.Count != writers*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, writers*perG)
	}
	if h.Min != 0 || h.Max != perG-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", h.Min, h.Max, perG-1)
	}
	wantSum := int64(writers) * int64(perG) * int64(perG-1) / 2
	if h.Sum != wantSum {
		t.Errorf("histogram sum = %d, want %d", h.Sum, wantSum)
	}
	if g := s.Gauges["race.gauge"]; g < 0 || g >= writers {
		t.Errorf("gauge = %d, want one of the writer ids [0,%d)", g, writers)
	}
}
