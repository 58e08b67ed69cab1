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

// analysis is everything downstream consumers read off a tally.
type analysis struct {
	incidents int
	jobs      int
	pareto20  float64
	stats     []JobStat
	snap      TallySnapshot
}

func analyze(t *Tally, fleetSize int) analysis {
	return analysis{
		incidents: t.Incidents(),
		jobs:      t.Jobs(),
		pareto20:  t.Pareto(0.2),
		stats:     t.Analyze(fleetSize, 0.15),
		snap:      t.Snapshot(),
	}
}

// TestTallyMergeOrderInsensitive pins the invariant warranty.MergeSnapshots'
// bit-identical guarantee rests on: a random event stream split into K
// shards and folded back in shuffled orders — and in arbitrary
// associativity groupings — must produce Analyze/Pareto output identical
// to the unsharded fold.
func TestTallyMergeOrderInsensitive(t *testing.T) {
	const fleetSize = 64
	for _, tc := range []struct {
		seed   uint64
		events int
		shards int
	}{
		{seed: 1, events: 500, shards: 2},
		{seed: 2, events: 2000, shards: 4},
		{seed: 3, events: 5000, shards: 7},
		{seed: 4, events: 1, shards: 4},
		{seed: 5, events: 0, shards: 3},
	} {
		rng := sim.NewRNG(tc.seed)
		stream := randomStream(rng, tc.events, fleetSize, 23)

		// Reference: one tally folds the whole stream in order.
		single := NewTally()
		for _, o := range stream {
			single.Observe(o.vehicle, o.job)
		}
		want := analyze(single, fleetSize)

		// Shard by vehicle (the ring's partition law: one vehicle, one
		// shard), preserving per-shard stream order.
		shards := make([]*Tally, tc.shards)
		for i := range shards {
			shards[i] = NewTally()
		}
		for _, o := range stream {
			shards[o.vehicle%tc.shards].Observe(o.vehicle, o.job)
		}

		// Fold the shards in several shuffled orders.
		for trial := 0; trial < 8; trial++ {
			order := rng.Perm(tc.shards)
			merged := NewTally()
			for _, i := range order {
				merged.Merge(shards[i])
			}
			if got := analyze(merged, fleetSize); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d order %v: merged analysis diverged:\ngot  %+v\nwant %+v",
					tc.seed, order, got, want)
			}
		}

		// Associativity: merge((s0,s1),(s2,...)) versus the flat left fold.
		left := NewTally()
		left.Merge(shards[0])
		if tc.shards > 1 {
			left.Merge(shards[1])
		}
		right := NewTally()
		for _, sh := range shards[2:] {
			right.Merge(sh)
		}
		grouped := NewTally()
		grouped.Merge(left)
		grouped.Merge(right)
		if got := analyze(grouped, fleetSize); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: grouped merge diverged:\ngot  %+v\nwant %+v", tc.seed, got, want)
		}
	}
}

// TestTallySnapshotRoundTrip: export → import reproduces the tally exactly
// (same analysis, same canonical snapshot), and the exported form is
// canonical — identical bytes for identical observations regardless of
// ingestion order.
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

	back := TallyFromSnapshot(fwd.Snapshot())
	if got, want := analyze(back, 40), analyze(fwd, 40); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}
