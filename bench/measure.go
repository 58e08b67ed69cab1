package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// batch is what one call of a workload's timed function did. Campaign
// workloads run one op per batch; ingest runs a pass of many requests.
type batch struct {
	lat    []time.Duration // wall time of each op
	err    error           // a failed check: every op of the batch fails
	digest string          // hash of the canonical rendering of the results

	units      float64 // vehicle-rounds simulated or ingested
	vehicles   int     // vehicles completed
	incidents  int     // ground-truth faults the in-process audit judged
	events     int64   // trace events ingested
	traceBytes int64   // encoded trace bytes ingested
	corrupt    int64   // undecodable trace records the warranty readers skipped
	rejected   int     // non-200 responses
}

// tally folds batches into the run's totals. want is the digest every
// batch must reproduce: the recorded one at the default seed and full
// scale, else the first batch's.
type tally struct {
	want      string
	batches   int
	attempted int
	failed    int
	errs      []string
	lat       []float64 // ms
	b         batch     // counter sums
}

func (t *tally) add(b batch) {
	n := len(b.lat)
	t.batches++
	t.attempted += n
	if t.want == "" {
		t.want = b.digest
	}
	switch {
	case b.err != nil:
		t.failed += n
		t.errs = append(t.errs, b.err.Error())
	case b.digest != t.want:
		t.failed += n
		t.errs = append(t.errs, fmt.Sprintf("digest %s, want %s", b.digest, t.want))
	}
	for _, d := range b.lat {
		t.lat = append(t.lat, ms(d))
	}
	t.b.units += b.units
	t.b.vehicles += b.vehicles
	t.b.incidents += b.incidents
	t.b.events += b.events
	t.b.traceBytes += b.traceBytes
	t.b.corrupt += b.corrupt
	t.b.rejected += b.rejected
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between order statistics (the method of
// R's type 7 and numpy's default). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes; Parent is the batch span it ran under.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. Off, it records nothing.
type tracer struct {
	on    bool
	start time.Time
	mu    sync.Mutex
	spans []span
	batch int64 // open batch span
}

func nop() {}

// begin opens a span under the open batch (a batch span itself when name
// is "batch") and returns the function that closes it. Safe for
// concurrent use.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return nop
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	parent := t.batch
	if name == "batch" {
		t.batch, parent = id, 0
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.start).Nanoseconds()})
	return func() {
		t.mu.Lock()
		t.spans[id-1].EndNS = time.Since(t.start).Nanoseconds()
		t.mu.Unlock()
	}
}

// durations returns the length in ms of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
