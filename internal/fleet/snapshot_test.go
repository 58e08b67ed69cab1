package fleet

import (
	"reflect"
	"testing"

	"decos/internal/sim"
)

// observation is one (vehicle, job) incident of a synthetic fleet stream.
type observation struct {
	vehicle int
	job     string
}

// randomStream draws a skewed synthetic incident stream: few jobs carry
// most incidents (the 20-80 shape the Pareto metric is sensitive to).
func randomStream(rng *sim.RNG, n, vehicles, jobs int) []observation {
	names := make([]string, jobs)
	for j := range names {
		names[j] = "job[" + string(rune('A'+j%26)) + "/j@0]" + string(rune('0'+j/26))
	}
	out := make([]observation, n)
	for i := range out {
		// Quadratic skew towards low job indices.
		f := rng.Float64()
		j := int(f * f * float64(jobs))
		if j >= jobs {
			j = jobs - 1
		}
		out[i] = observation{vehicle: 1 + rng.Intn(vehicles), job: names[j]}
	}
	return out
}

// TestTallySnapshotRoundTrip: the exported form is canonical — identical
// values for identical observations regardless of ingestion order.
func TestTallySnapshotRoundTrip(t *testing.T) {
	rng := sim.NewRNG(42)
	stream := randomStream(rng, 1500, 40, 17)

	fwd, rev := NewTally(), NewTally()
	for _, o := range stream {
		fwd.Observe(o.vehicle, o.job)
	}
	for i := len(stream) - 1; i >= 0; i-- {
		rev.Observe(stream[i].vehicle, stream[i].job)
	}
	if !reflect.DeepEqual(fwd.Snapshot(), rev.Snapshot()) {
		t.Fatal("snapshot not canonical: ingestion order leaked into the export")
	}
}
