// Package experiments regenerates every figure of the paper as an
// executable measurement (experiments E1–E14 of DESIGN.md) plus the
// ablations A1–A5. Each experiment returns a Result with a human-readable
// table and structured metrics; cmd/decos-bench prints them and the
// repo-root benchmarks time them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (E1..E8, A1..A4).
	ID string
	// Figure names the paper artifact the experiment regenerates.
	Figure string
	// Table is the formatted report.
	Table string
	// Metrics carries the headline numbers for EXPERIMENTS.md and
	// assertions in tests.
	Metrics map[string]float64
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n%s", r.ID, r.Figure, r.Table)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("metrics:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.4g", k, r.Metrics[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// registry is the single ordered catalogue of experiments; All, ByID and
// Names all derive from it, so adding an experiment is one entry here.
var registry = []struct {
	ID  string
	Run func(seed uint64) *Result
}{
	{"E1", E1CoreServices},
	{"E2", E2Chain},
	{"E3", E3Bathtub},
	{"E4", E4Patterns},
	{"E5", E5Trust},
	{"E6", E6Judgment},
	{"E7", E7Actions},
	{"E8", E8NFF},
	{"E9", E9MultiFault},
	{"E10", E10Scale},
	{"E11", E11RepairLoop},
	{"E12", E12Robustness},
	{"E13", E13FleetWarranty},
	{"E14", E14Whatif},
	{"E15", E15PackConformance},
	{"E16", E16BayesCalibration},
	{"A1", A1WindowSweep},
	{"A2", A2AlphaSweep},
	{"A3", A3Encapsulation},
	{"A4", A4QueueSweep},
	{"A5", A5DiagBandwidth},
}

// ByID runs the experiment with the given identifier (case-insensitive).
func ByID(id string, seed uint64) (*Result, bool) {
	want := strings.ToUpper(id)
	for _, e := range registry {
		if e.ID == want {
			return e.Run(seed), true
		}
	}
	return nil, false
}

// Names returns every experiment identifier in run order — the valid
// values of ByID, for discoverable command-line errors.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// table is a tiny fixed-width table builder.
type table struct {
	b      strings.Builder
	widths []int
	rows   [][]string
	header []string
}

func newTable(header ...string) *table {
	t := &table{header: header}
	for _, h := range header {
		t.widths = append(t.widths, len(h))
	}
	return t
}

func (t *table) row(cells ...any) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		s := fmt.Sprint(c)
		if f, ok := c.(float64); ok {
			s = fmt.Sprintf("%.3g", f)
		}
		strs[i] = s
		for len(t.widths) <= i {
			t.widths = append(t.widths, 0)
		}
		if len(s) > t.widths[i] {
			t.widths[i] = len(s)
		}
	}
	t.rows = append(t.rows, strs)
}

func (t *table) String() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", t.widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// faultedFig10 builds a Fig. 10 system whose fault manifest injects one
// fault of kind at 300 ms, and returns it with that fault's ledger entry.
func faultedFig10(seed uint64, opts diagnosis.Options, kind scenario.FaultKind, extra ...engine.Option) (*engine.Engine, *faults.Activation) {
	sys := scenario.Fig10(seed, opts, []scenario.InjectPlan{{Kind: kind, At: ms(300)}}, extra...)
	return sys, sys.Injector.Ledger()[0]
}

// run is one system an experiment builds with explicit faults, and the
// rounds it runs. Its faults are plan entries, so it restores from a
// checkpoint taken anywhere.
type run struct {
	seed   uint64
	opts   diagnosis.Options
	plan   []scenario.InjectPlan
	rounds int64
	grid   int // components of a scenario.Grid run; 0 builds Fig10
	extra  []engine.Option
}

func (r *run) build(extra ...engine.Option) *engine.Engine {
	extra = append(r.extra[:len(r.extra):len(r.extra)], extra...)
	if r.grid > 0 {
		return scenario.Grid(r.grid, r.seed, r.opts, r.plan, extra...)
	}
	return scenario.Fig10(r.seed, r.opts, r.plan, extra...)
}

// plan injects every fault of fs at the instant at.
func plan(at sim.Time, fs ...pack.FaultSpec) []scenario.InjectPlan {
	out := make([]scenario.InjectPlan, len(fs))
	for i := range fs {
		out[i] = scenario.InjectPlan{At: at, Fault: &fs[i]}
	}
	return out
}

// ms is the instant n milliseconds into a run.
func ms(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
