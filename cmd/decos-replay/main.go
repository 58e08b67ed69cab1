// Command decos-replay reads an event trace written by decos-sim -trace —
// either encoding, NDJSON or binary, detected from the first bytes — and
// prints the offline analysis a warranty engineer would start from: the
// incident inventory, per-FRU symptom totals, the verdict timeline and
// the trust endpoints (paper Section V-B: off-line analysis of field data
// informs fault-pattern design). Corrupt records are skipped so the
// analysis still prints, but each skipped record is reported to stderr
// with its record number and the replay exits non-zero — a silently
// damaged field trace must not pass for a clean one.
//
// With -transcode, the trace is converted instead of analysed: an NDJSON
// trace becomes a binary one and vice versa (override with -format), so
// recorded corpora move between the archival and the high-volume ingest
// encodings without re-running a campaign.
//
// Usage:
//
//	decos-replay trace.jsonl
//	decos-replay -transcode trace.bin trace.jsonl
//	decos-replay -transcode back.jsonl -format ndjson trace.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"decos/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: decos-replay [-transcode OUT [-format ndjson|binary]] <trace>`)
		flag.PrintDefaults()
	}
	transcode := flag.String("transcode", "", "convert the trace to `FILE` instead of analysing it")
	format := flag.String("format", "", "transcode target encoding: ndjson or binary (default: the opposite of the input)")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	if *transcode != "" {
		os.Exit(runTranscode(f, *transcode, *format))
	}

	var (
		kinds      = map[string]int{}
		vehicles   = map[int]bool{}
		symptoms   = map[string]int{} // subject -> count
		sympKinds  = map[string]int{} // symptom kind -> count
		verdicts   []trace.Event
		injections []trace.Event
		lastTrust  = map[string]float64{}
		firstT     = int64(-1)
		lastT      int64
		total      int
	)

	// The readers skip undecodable records instead of aborting the whole
	// replay — a truncated or partly garbled field trace still analyses.
	rd, _ := trace.OpenReader(f)
	err = rd.Each(func(e *trace.Event) {
		total++
		kinds[e.Kind]++
		if e.Vehicle != 0 {
			vehicles[e.Vehicle] = true
		}
		if firstT < 0 || e.T < firstT {
			firstT = e.T
		}
		if e.T > lastT {
			lastT = e.T
		}
		switch e.Kind {
		case "symptom":
			symptoms[e.Subject] += e.Count
			sympKinds[e.Symptom] += e.Count
		case "verdict":
			verdicts = append(verdicts, *e)
		case "injection":
			injections = append(injections, *e)
		case "trust":
			if e.Trust != nil {
				lastTrust[e.Subject] = *e.Trust
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reading trace: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("trace: %d events spanning %.3fs .. %.3fs\n", total,
		float64(firstT)/1e6, float64(lastT)/1e6)
	if len(vehicles) > 1 {
		fmt.Printf("vehicles: %d\n", len(vehicles))
	}
	fmt.Printf("event kinds:")
	for _, k := range sortedKeys(kinds) {
		fmt.Printf(" %s=%d", k, kinds[k])
	}
	fmt.Println()

	if len(injections) > 0 {
		fmt.Println("\n== injected faults (ground truth; not visible to diagnosis) ==")
		for _, e := range injections {
			fmt.Printf("  %.3fs  %-22s %-18s %s\n", float64(e.T)/1e6, e.Class, e.Subject, e.Detail)
		}
	}

	fmt.Println("\n== symptom totals per FRU ==")
	for _, s := range sortedKeys(symptoms) {
		fmt.Printf("  %-22s %6d\n", s, symptoms[s])
	}
	fmt.Println("\n== symptom totals per kind ==")
	for _, s := range sortedKeys(sympKinds) {
		fmt.Printf("  %-22s %6d\n", s, sympKinds[s])
	}

	if len(verdicts) > 0 {
		fmt.Println("\n== verdict timeline ==")
		for _, e := range verdicts {
			fmt.Printf("  %.3fs  %-22s %-22s pattern=%-20s action=%s\n",
				float64(e.T)/1e6, e.Subject, e.Class, e.Pattern, e.Action)
		}
	}

	if len(lastTrust) > 0 {
		fmt.Println("\n== final trust levels ==")
		for _, s := range sortedKeys(lastTrust) {
			fmt.Printf("  %-22s %.3f\n", s, lastTrust[s])
		}
	}

	// The analysis above still runs on whatever decoded, but corruption is
	// an error condition: report every retained recovery error (the readers
	// keep record-numbered detail for the first few) and exit non-zero.
	if !reportCorrupt(rd) {
		os.Exit(1)
	}
}

// runTranscode streams the trace into out in the target encoding and
// returns the process exit code. The default target is the opposite of
// the detected input encoding; corrupt input records are skipped with the
// readers' record-numbered errors and force a non-zero exit, like the
// analysis path.
func runTranscode(in *os.File, out, format string) int {
	rd, detected := trace.OpenReader(in)
	target := trace.FormatBinary
	if detected == trace.FormatBinary {
		target = trace.FormatNDJSON
	}
	if format != "" {
		var err error
		if target, err = trace.ParseFormat(format); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	of, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Transcode closes the sink, and that closes the file: both encodings'
	// sinks own their writer, and the binary one still has a header to
	// write for an event-free stream.
	events, unencodable, err := trace.Transcode(rd, trace.NewSink(of, target))
	if err != nil {
		fmt.Fprintf(os.Stderr, "transcoding to %s: %v\n", out, err)
		return 1
	}

	fmt.Printf("transcoded %d events: %s (%s) -> %s (%s)\n",
		events, in.Name(), detected, out, target)
	ok := reportCorrupt(rd)
	if unencodable > 0 {
		fmt.Fprintf(os.Stderr, "decos-replay: %d event(s) have no %s layout and were dropped\n", unencodable, target)
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// reportCorrupt prints any retained recovery errors to stderr and
// reports whether the stream was clean.
func reportCorrupt(rd trace.EventReader) bool {
	n := rd.Corrupt()
	if n == 0 {
		return true
	}
	errs := rd.CorruptErrors()
	fmt.Fprintf(os.Stderr, "decos-replay: %d corrupt record(s) skipped:\n", n)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "  %v\n", e)
	}
	if n > len(errs) {
		fmt.Fprintf(os.Stderr, "  ... and %d more\n", n-len(errs))
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
