// Command bench is the repository's benchmark. It runs one workload in one
// process and prints every metric as "name value unit", then one JSON
// object with the op counts and the metrics:
//
//	bash bench/run.sh -workload fleet -seed 20050404 -seconds 10 -trace 0
//
// An untraced run prints the end-to-end metrics; a traced run (-trace 1)
// profiles the measured phase and prints the per-layer ones. See
// README.md for the workloads, the metrics and the ledger rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// A run sets its workload up at least minSetups times, and more, up to
// maxSetups, until the set-ups have taken config.setupBudget; setup_s is
// their median. A cheap set-up (tens of milliseconds) is timed often
// enough that one slow repetition does not move it; the heaviest, ingest's
// (several seconds), runs only twice, which keeps its runs under 30 s.
const (
	minSetups = 2
	maxSetups = 25
)

// minBatches is the fewest timed batches a run makes, however short
// -seconds is.
const minBatches = 3

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	scale       float64       // factor on every vehicle count; tests use a tiny one
	setupBudget time.Duration // see minSetups
	profileDir  string        // where a traced run writes its profiles and spans
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

func main() {
	cfg := config{scale: 1, setupBudget: time.Second, profileDir: filepath.Join(".bench_build", "profile")}
	flag.StringVar(&cfg.workload, "workload", "", "fleet, warranty, ingest, montecarlo or resume")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed the workload's inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase runs (at least 3 batches)")
	traced := flag.Int("trace", 0, "1 profiles the run and prints the per-layer metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *traced == 1
	rep, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run sets the workload up repeatedly, each time with a warm-up op at a
// tenth of the size, then repeats its timed function for cfg.seconds and
// measures. log receives the run's digest and op failures.
func run(cfg config, log io.Writer) (report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return report{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		runtime.MemProfileRate = 64 << 10
		runtime.SetMutexProfileFraction(1)
		defer runtime.SetMutexProfileFraction(0)
	}

	tr := &tracer{}
	var setups []float64
	var op func() batch
	begun := time.Now()
	for len(setups) < minSetups ||
		len(setups) < maxSetups && time.Since(begun) < cfg.setupBudget {
		op = nil // the previous set-up's inputs are garbage from here on
		t0 := time.Now()
		next, err := w.setup(cfg.seed, cfg.scale, tr)
		if err != nil {
			return report{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		warm, err := w.setup(cfg.seed, cfg.scale/10, tr)
		if err != nil {
			return report{}, fmt.Errorf("%s warm-up setup: %w", w.name, err)
		}
		if b := guarded(warm); b.err != nil {
			return report{}, fmt.Errorf("%s warm-up: %w", w.name, b.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		op = next
	}

	dir := filepath.Join(cfg.profileDir, w.name)
	var prof *profiler
	if cfg.trace {
		var err error
		if prof, err = startProfiling(dir); err != nil {
			return report{}, err
		}
	} else {
		runtime.GC()
	}
	t := tally{}
	if cfg.seed == defaultSeed && cfg.scale == 1 {
		t.want = recordedDigests[w.name]
	}
	tr.on, tr.start = cfg.trace, time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for t.batches < minBatches || time.Since(start).Seconds() < cfg.seconds {
		end := tr.begin("batch")
		b := guarded(op)
		end()
		t.add(b)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	tr.on = false

	fmt.Fprintf(log, "%s seed=%d scale=%g setups=%d batches=%d ops=%d failed=%d digest=%s run_s=%.1f\n",
		w.name, cfg.seed, cfg.scale, len(setups), t.batches, t.attempted, t.failed, t.want,
		time.Since(begun).Seconds())
	for i, e := range t.errs {
		if i == 5 {
			fmt.Fprintf(log, "... and %d more failed batches\n", len(t.errs)-i)
			break
		}
		fmt.Fprintln(log, "failed:", e)
	}
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	ops := float64(t.attempted)
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		rep.Metrics = []metric{
			{"setup_s", quantile(setups, 0.5), "s"},
			{"op_ms_p50", quantile(t.lat, 0.5), "ms"},
			{"vehicle_rounds_per_s", t.b.units / wall.Seconds(), "1/s"},
			{"alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops, "MB"},
			{"mallocs_per_op", float64(m1.Mallocs-m0.Mallocs) / ops, "count"},
			{"peak_rss_mb", rss, "MB"},
		}
		return rep, nil
	}

	if err := prof.stop(); err != nil {
		return report{}, err
	}
	cpuL, allocL, mutexL, err := prof.ledgers()
	if err != nil {
		return report{}, err
	}
	for _, l := range layers {
		rep.Metrics = append(rep.Metrics,
			metric{l + ".cpu_share", cpuL.share(l), "fraction"},
			metric{l + ".alloc_share", allocL.share(l), "fraction"})
	}
	ingestMS := sum(tr.durations("warranty.ingest"))
	rep.Metrics = append(rep.Metrics,
		metric{"ledger.named_share", cpuL.named(), "fraction"},
		metric{"ledger.cpu_samples", cpuL.total, "count"},
		metric{"scenario.run_ms_per_op", sum(tr.durations("scenario.run")) / ops, "ms"},
		metric{"scenario.cpu_utilization", cpu.Seconds() / (workers * wall.Seconds()), "fraction"},
		metric{"scenario.vehicles_per_op", float64(t.b.vehicles) / ops, "count"},
		metric{"diagnosis.incidents_per_op", float64(t.b.incidents) / ops, "count"},
		metric{"trace.events_per_op", float64(t.b.events) / ops, "count"},
		metric{"trace.bytes_per_event", ratio(float64(t.b.traceBytes), float64(t.b.events)), "B"},
		metric{"warranty.ingest_ms_per_op", ingestMS / ops, "ms"},
		metric{"warranty.ingest_events_per_s", ratio(float64(t.b.events), ingestMS/1e3), "1/s"},
		metric{"warranty.summary_ms_p50", quantile(tr.durations("warranty.summary"), 0.5), "ms"},
		metric{"warranty.lock_wait_ms_per_op", mutexL.by["warranty"] / 1e6 / ops, "ms"},
		metric{"warranty.corrupt_events", float64(t.b.corrupt), "count"},
		metric{"warranty.rejected_requests", float64(t.b.rejected), "count"},
		metric{"gc.cycles_per_op", float64(m1.NumGC-m0.NumGC) / ops, "count"},
		metric{"gc.pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops, "ms"},
		metric{"traced.op_ms_p50", quantile(t.lat, 0.5), "ms"},
		metric{"traced.op_ms_p99", quantile(t.lat, 0.99), "ms"},
	)
	f, err := os.Create(filepath.Join(dir, "spans.ndjson"))
	if err != nil {
		return report{}, fmt.Errorf("spans: %w", err)
	}
	err = tr.write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, fmt.Errorf("spans: %w", err)
	}
	return rep, nil
}

// guarded runs one batch, turning a panic on the calling goroutine into a
// failed op.
func guarded(op func() batch) (b batch) {
	t0 := time.Now()
	defer func() {
		if p := recover(); p != nil {
			b = batch{lat: []time.Duration{time.Since(t0)}, err: fmt.Errorf("panic: %v", p)}
		}
	}()
	return op()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write prints every metric as "name value unit" and, as the last line,
// the JSON result object.
func (r report) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
