package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the ledger's attribution targets: the repository's module
// names, then gc (runtime-only stacks of the collector's workers) and
// runtime (every other runtime-only stack). Samples that fit none of them
// (the benchmark's own frames, profiling) are "other" and lower
// ledger.named_share.
var layers = []string{
	"sim", "tt", "vnet", "clock", "component", "faults", "diagnosis",
	"baseline", "bayes", "trace", "warranty", "maintenance", "fleet",
	"ckpt", "pack", "engine", "scenario", "core", "telemetry",
	"gc", "runtime",
}

const modulePrefix = "decos/internal/"

// frame is one line of a `go tool pprof -traces -lines` stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file, without the :line suffix
}

// stack is one sample block of the same output: its value and its frames,
// innermost first.
type stack struct {
	value  float64
	frames []frame
}

// parseTraces reads the text `go tool pprof -traces -lines` prints. The
// value is the number leading a block's first frame line; the caller fixes
// its unit with -sample_index/-unit. Header lines and the "bytes:" label
// lines of memory profiles are skipped.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stack{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] == "bytes:" {
			continue
		}
		if len(cur.frames) == 0 {
			num := strings.TrimRightFunc(fields[0], func(r rune) bool {
				return r < '0' || r > '9'
			})
			v, err := strconv.ParseFloat(num, 64)
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("ledger: bad sample line %q", line)
			}
			cur.value = v
			fields = fields[1:]
		}
		f := frame{fn: fields[0]}
		if len(fields) > 1 {
			f.file = fields[1]
			if i := strings.LastIndexByte(f.file, ':'); i > 0 {
				f.file = f.file[:i]
			}
		}
		cur.frames = append(cur.frames, f)
	}
	return out, sc.Err()
}

// layerOf charges a stack to the package of its innermost decos/internal
// frame, so standard-library work a layer calls (encoding/json under
// trace, net/http under warranty, mallocgc anywhere) is that layer's cost.
// Checkpoint code counts as ckpt: the ckpt package and every package's
// checkpoint.go, except the run-loop helpers that live there
// (component.(*Cluster).RunToRound*). A stack without a module frame is gc
// or runtime when every frame is the runtime's, else "other".
func layerOf(frames []frame) string {
	for _, f := range frames {
		if !strings.HasPrefix(f.fn, modulePrefix) {
			continue
		}
		rest := f.fn[len(modulePrefix):]
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		if pkg == "ckpt" || filepath.Base(f.file) == "checkpoint.go" && !strings.Contains(rest, ".RunToRound") {
			return "ckpt"
		}
		if known(pkg) {
			return pkg
		}
		return "other"
	}
	gc := false
	for _, f := range frames {
		if !isRuntime(f.fn) {
			return "other"
		}
		switch f.fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			gc = true
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func known(layer string) bool {
	for _, l := range layers {
		if l == layer {
			return true
		}
	}
	return false
}

// ledger sums stack values per layer; total includes "other".
type ledger struct {
	by    map[string]float64
	total float64
}

func attribute(stacks []stack) ledger {
	l := ledger{by: map[string]float64{}}
	for _, s := range stacks {
		l.by[layerOf(s.frames)] += s.value
		l.total += s.value
	}
	return l
}

// share is the layer's fraction of the total (0 for an empty profile).
func (l ledger) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return l.by[layer] / l.total
}

// named is the fraction charged to any of the layers.
func (l ledger) named() float64 {
	if l.total == 0 {
		return 0
	}
	return 1 - l.by["other"]/l.total
}

// profiler records the traced run's CPU profile over the measured phase and
// snapshots the cumulative allocation and mutex profiles at its start and
// end, so the ledgers diff them (pprof -base) and setup is left out.
type profiler struct {
	dir string
	cpu *os.File
}

// startProfiling must be preceded by runtime.MemProfileRate and
// runtime.SetMutexProfileFraction settings made before setup.
func startProfiling(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	p := &profiler{dir: dir}
	if err := p.snapshot("0"); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.prof"))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.cpu = f
	return p, nil
}

// snapshot writes allocs<suffix>.prof and mutex<suffix>.prof after a GC,
// which publishes the allocation records made since the last one.
func (p *profiler) snapshot(suffix string) error {
	runtime.GC()
	for _, name := range []string{"allocs", "mutex"} {
		f, err := os.Create(filepath.Join(p.dir, name+suffix+".prof"))
		if err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		err = pprof.Lookup(name).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
	}
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return p.snapshot("1")
}

// ledgers attributes the three profiles: CPU samples, bytes allocated and
// mutex wait (ns) during the measured phase.
func (p *profiler) ledgers() (cpu, alloc, mutex ledger, err error) {
	path := func(name string) string { return filepath.Join(p.dir, name) }
	runs := []struct {
		dst  *ledger
		args []string
	}{
		{&cpu, []string{"-sample_index=samples", path("cpu.prof")}},
		{&alloc, []string{"-sample_index=alloc_space", "-unit=B", "-base", path("allocs0.prof"), path("allocs1.prof")}},
		{&mutex, []string{"-sample_index=delay", "-unit=ns", "-base", path("mutex0.prof"), path("mutex1.prof")}},
	}
	for _, r := range runs {
		cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-lines"}, r.args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return cpu, alloc, mutex, fmt.Errorf("go tool pprof %s: %v: %s", r.args[len(r.args)-1], err, stderr.String())
		}
		stacks, err := parseTraces(string(out))
		if err != nil {
			return cpu, alloc, mutex, err
		}
		*r.dst = attribute(stacks)
	}
	return cpu, alloc, mutex, nil
}
