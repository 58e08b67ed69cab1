package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// resultJSON is a campaign result's semantic content (the reports hold
// *faults.Activation ground truth whose closures never compare equal).
func resultJSON(t *testing.T, res *CampaignResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCampaignReuseMatchesFreshEngines pins worker engine reuse to the
// build-per-vehicle path: every replicate of a Monte Carlo pool, run by
// workers that reset one engine from vehicle to vehicle and replicate to
// replicate, merges to exactly the result of the same replicate run with
// a freshly built engine per vehicle, under each classifier and for 1, 2
// and 8 workers. Besides the default mix, a permanent-fault fleet makes
// the OBD baseline store trouble codes that a stale engine would carry
// into the next vehicle.
func TestCampaignReuseMatchesFreshEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated campaigns in -short mode")
	}
	const replicates = 3
	for _, cls := range []string{"", "obd", "bayes"} {
		for _, mix := range []map[FaultKind]float64{nil, {KindPermanent: 1}} {
			reuseMatchesFresh(t, replicates, Campaign{
				Vehicles: 6, Rounds: 2000, Seed: 7, FaultFreeShare: 0.3, FaultsPerVehicle: 2,
				Classifier: cls, Mix: mix,
			})
		}
	}
}

// reuseMatchesFresh runs the comparison of
// TestCampaignReuseMatchesFreshEngines for one campaign.
func reuseMatchesFresh(t *testing.T, replicates int, base Campaign) {
	t.Helper()
	var want [][]byte
	for r := 0; r < replicates; r++ {
		fresh := base
		fresh.Seed = base.replicateSeed(r)
		rep := &replicate{plans: fresh.plans(), outcomes: make([]vehicleOutcome, base.Vehicles), done: make([]bool, base.Vehicles)}
		for v, p := range rep.plans {
			w := new(worker) // no engine yet: runVehicle builds one
			if err := fresh.runVehicle(context.Background(), w, v, p, nil); err != nil {
				t.Fatal(err)
			}
			rep.outcomes[v], rep.done[v] = outcomeOf(w.eng, v, p), true
		}
		want = append(want, resultJSON(t, rep.result(context.Background())))
	}
	for _, workers := range []int{1, 2, 8} {
		c := base
		c.Workers = workers
		for r, rep := range c.runReplicates(context.Background(), replicates, nil) {
			if got := resultJSON(t, rep.result(context.Background())); !bytes.Equal(got, want[r]) {
				t.Errorf("classifier %q, mix %v, %d workers, replicate %d: reused engines give\n%s\nfresh engines\n%s",
					base.Classifier, base.Mix, workers, r, got, want[r])
			}
		}
	}
}

// TestMonteCarloWorkerCountInvariant: the Monte Carlo aggregate is the
// same for any worker count.
func TestMonteCarloWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated campaigns in -short mode")
	}
	var want *MonteCarloResult
	for _, workers := range []int{1, 2, 8} {
		c := Campaign{Vehicles: 5, Rounds: 1500, Seed: 7, FaultFreeShare: 0.2, Workers: workers, Classifier: "bayes"}
		got := c.MonteCarlo(context.Background(), 4)
		if want == nil {
			want = got
			continue
		}
		if *got != *want {
			t.Errorf("%d workers: %+v, 1 worker: %+v", workers, *got, *want)
		}
	}
}

// TestMonteCarloCancelledCountsLeadingReplicates: a pool cancelled
// mid-way aggregates exactly the leading replicates whose vehicles all
// completed, and flags the result Partial.
func TestMonteCarloCancelledCountsLeadingReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated campaigns in -short mode")
	}
	const replicates, vehicles = 4, 3
	for _, stopAfter := range []int{1, vehicles, vehicles + 2, 2 * vehicles} {
		t.Run(fmt.Sprint(stopAfter), func(t *testing.T) {
			c := Campaign{Vehicles: vehicles, Rounds: 300, Seed: 11, FaultFreeShare: 0.3, Workers: 1}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			finished := 0
			reps := c.runReplicates(ctx, replicates, func(int, []byte) {
				if finished++; finished == stopAfter {
					cancel()
				}
			})
			mc := aggregate(ctx, replicates, reps)
			// One worker runs the vehicles in order, and the vehicle that
			// cancels still completes.
			if want := stopAfter / vehicles; mc.Completed != want || !mc.Partial {
				t.Errorf("cancelled after %d vehicles: Completed %d, Partial %t; want %d, true",
					stopAfter, mc.Completed, mc.Partial, want)
			}
			if mc.PipelineAccuracy.N != mc.Completed {
				t.Errorf("aggregated %d replicates, completed %d", mc.PipelineAccuracy.N, mc.Completed)
			}
		})
	}
}
