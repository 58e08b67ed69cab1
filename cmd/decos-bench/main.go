// Command decos-bench regenerates the paper's figures as measurements:
// the experiments E1, E2, ... and the ablations A1, A2, ... (see
// DESIGN.md; -h lists every identifier).
//
// Usage:
//
//	decos-bench [-experiment ID|all] [-seed N] [-cpuprofile F] [-memprofile F] [-metrics D]
//
// The profile flags write pprof data covering the experiment run itself
// (not flag parsing or output formatting), for `go tool pprof`.
//
// -metrics D (a duration, e.g. 2s) dumps a one-line JSON telemetry
// snapshot to stderr every D while experiments run, plus a final one on
// exit: per-experiment wall-time distribution and completion counters.
// The registry is purely atomic, so the periodic dumper never races the
// experiment goroutine; with the flag off nothing is instrumented.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"decos/internal/experiments"
	"decos/internal/telemetry"
)

func main() {
	which := flag.String("experiment", "all", "experiment id ("+strings.Join(experiments.Names(), " ")+") or 'all'")
	seed := flag.Uint64("seed", 20050404, "master seed")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write allocation profile to file on exit")
	metricsEvery := flag.Duration("metrics", 0, "dump a telemetry snapshot to stderr every interval (0 = off)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var metrics *telemetry.Registry
	if *metricsEvery > 0 {
		metrics = telemetry.New()
		done := make(chan struct{})
		defer close(done)
		go func() {
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					_ = metrics.WriteJSON(os.Stderr)
				case <-done:
					return
				}
			}
		}()
		defer func() { _ = metrics.WriteJSON(os.Stderr) }()
	}

	run(*which, *seed, metrics)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(which string, seed uint64, metrics *telemetry.Registry) {
	// The nil-safe handles cost one branch per experiment when metrics are
	// off — the experiments themselves are never instrumented from here.
	count := metrics.Counter("bench.experiments")
	wallNS := metrics.Histogram("bench.experiment_ns")
	timed := func(id string, f func() *experiments.Result) *experiments.Result {
		start := time.Now()
		r := f()
		elapsed := time.Since(start).Nanoseconds()
		wallNS.Observe(elapsed)
		count.Inc()
		metrics.Gauge("bench.last_ns." + id).Set(elapsed)
		return r
	}

	if strings.EqualFold(which, "all") {
		for _, id := range experiments.Names() {
			id := id
			r := timed(id, func() *experiments.Result {
				res, _ := experiments.ByID(id, seed)
				return res
			})
			fmt.Println(r)
		}
		return
	}
	var ok bool
	r := timed(which, func() *experiments.Result {
		var res *experiments.Result
		res, ok = experiments.ByID(which, seed)
		return res
	})
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n  %s\n  all\n",
			which, strings.Join(experiments.Names(), " "))
		os.Exit(2)
	}
	fmt.Println(r)
}
