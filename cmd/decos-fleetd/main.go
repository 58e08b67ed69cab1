// Command decos-fleetd is the fleet-side warranty-analysis daemon (paper
// Section V-B): it accepts diagnostic traces uplinked by vehicles — the
// binary trace encoding (Content-Type application/x-decos-trace) or
// NDJSON, negotiated per request — and serves the fleet aggregates: the
// NFF audit against the OBD baseline, the Section V-C 20-80 software
// concentration, per-FRU trust trajectories and Fig. 8 pattern
// statistics.
//
//	POST /v1/ingest        trace events, binary or NDJSON by Content-Type (415 otherwise;
//	                       429 + Retry-After when the queue is full, 413 past -max-body-bytes)
//	GET  /v1/fleet/summary fleet aggregate (?threshold= optional)
//	GET  /v1/fru/{id}      per-FRU drill-down (id URL-escaped)
//	GET  /v1/healthz       liveness + ingestion counters
//	GET  /v1/metrics       telemetry snapshot (?format=expvar for flat JSON)
//
// With -demo-vehicles N the daemon pre-populates itself by running an
// N-vehicle traced campaign on all CPUs and ingesting the streams — a
// built-in load generator and a way to explore the API without a fleet.
//
// With -state-dir DIR the daemon is a warm standby: on graceful shutdown
// (SIGTERM/SIGINT) it persists the collector to DIR/warranty-state.json,
// and on boot it reloads that file if present — a restarted daemon serves
// its accumulated fleet view immediately instead of waiting for vehicles
// to re-uplink.
//
// Usage:
//
//	decos-fleetd -addr :8080
//	decos-fleetd -addr :8080 -demo-vehicles 150 -demo-rounds 3000
//	decos-fleetd -addr :8080 -state-dir /var/lib/decos-fleetd
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"decos/internal/engine"
	"decos/internal/scenario"
	"decos/internal/telemetry"
	"decos/internal/warranty"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shards       = flag.Int("shards", warranty.DefaultShards, "mutex stripes in the vehicle store")
		maxInflight  = flag.Int("max-inflight", 64, "concurrent ingest requests before 429")
		maxLineBytes = flag.Int("max-line-bytes", 0, "per-connection NDJSON line cap (0 = default 1 MiB)")
		maxBodyBytes = flag.Int64("max-body-bytes", 0, "ingest request body cap (0 = default 256 MiB)")
		threshold    = flag.Float64("threshold", warranty.DefaultThreshold,
			"systematic-fault vehicle share for summaries")
		stateDir     = flag.String("state-dir", "", "persist the collector across restarts (warm standby; empty = stateless)")
		retryAfter   = flag.Int("retry-after", 0, "Retry-After seconds sent with 429 (0 = default 1, negative = 0)")
		demoVehicles = flag.Int("demo-vehicles", 0, "pre-populate with an N-vehicle traced campaign")
		demoRounds   = flag.Int64("demo-rounds", 3000, "rounds per demo vehicle")
		demoSeed     = flag.Uint64("demo-seed", 20050404, "demo campaign seed")
	)
	flag.Parse()

	// One context drives every long-running loop of the process: SIGTERM
	// aborts an in-flight demo campaign and drains the HTTP server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	col := warranty.NewCollector(*shards)
	metrics := telemetry.New()

	// Warm standby: reload the state a previous incarnation persisted on
	// shutdown, so a restarted daemon serves its fleet view immediately
	// instead of waiting for vehicles to re-uplink.
	statePath := ""
	if *stateDir != "" {
		statePath = filepath.Join(*stateDir, warranty.StateFileName)
		switch snap, err := warranty.LoadState(statePath); {
		case err == nil:
			if err := col.LoadSnapshot(snap); err != nil {
				fmt.Fprintf(os.Stderr, "decos-fleetd: restoring %s: %v\n", statePath, err)
				os.Exit(1)
			}
			log.Printf("restored %d vehicles, %d events from %s", col.Vehicles(), col.Events(), statePath)
		case os.IsNotExist(err):
			log.Printf("cold start: no state at %s", statePath)
		default:
			fmt.Fprintf(os.Stderr, "decos-fleetd: %v\n", err)
			os.Exit(1)
		}
	}

	if *demoVehicles > 0 {
		start := time.Now()
		c := scenario.Campaign{
			Vehicles: *demoVehicles,
			Rounds:   *demoRounds,
			Seed:     *demoSeed,
			Workers:  runtime.GOMAXPROCS(0),
		}
		res := c.RunTracedContext(ctx, func(v int, blob []byte) {
			if _, _, err := col.IngestStream(bytes.NewReader(blob), *maxLineBytes); err != nil {
				log.Printf("demo vehicle %d: %v", v, err)
			}
		})
		if res.Partial {
			log.Printf("demo campaign interrupted after %d of %d vehicles", res.Completed, *demoVehicles)
			return
		}
		log.Printf("demo campaign: %d vehicles, %d events ingested in %v",
			col.Vehicles(), col.Events(), time.Since(start).Round(time.Millisecond))
	}

	api := warranty.NewServer(col, warranty.ServerOptions{
		MaxInflight:  *maxInflight,
		MaxLineBytes: *maxLineBytes,
		MaxBodyBytes: *maxBodyBytes,
		Threshold:    *threshold,
		RetryAfter:   *retryAfter,
		Telemetry:    metrics,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	log.Printf("decos-fleetd listening on %s (%d shards)", *addr, *shards)
	if err := engine.Serve(ctx, srv, 15*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "decos-fleetd: %v\n", err)
		os.Exit(1)
	}
	// Graceful shutdown (SIGTERM/SIGINT, server drained): persist the
	// collector so the next incarnation boots warm.
	if statePath != "" {
		if err := warranty.SaveState(statePath, col.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "decos-fleetd: persisting state: %v\n", err)
			os.Exit(1)
		}
		log.Printf("state persisted to %s (%d vehicles, %d events)", statePath, col.Vehicles(), col.Events())
	}
	// One-line final accounting for operators: everything the process
	// ingested, refused and skipped over its lifetime, from the same
	// telemetry registry /v1/metrics served.
	s := metrics.Snapshot()
	log.Printf("bye: %d frames in %d events from %d vehicles, %d ingest requests (%d stalled), %d corrupt lines, %d malformed events",
		col.Frames(), col.Events(), col.Vehicles(),
		s.Counters["ingest.requests"], s.Counters["ingest.rejected"],
		col.Corrupt(), col.Malformed())
}
