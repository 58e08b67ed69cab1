// Command decos-bench regenerates the paper's figures as measurements:
// the experiments E1, E2, ... and the ablations A1, A2, ... (see
// DESIGN.md; -h lists every identifier).
//
// Usage:
//
//	decos-bench [-experiment ID|all] [-seed N]
//
// To profile, run the repo benchmark with `bash bench/run.sh -trace 1`:
// pprof plus the per-layer ledger.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"decos/internal/experiments"
)

func main() {
	which := flag.String("experiment", "all", "experiment id ("+strings.Join(experiments.Names(), " ")+") or 'all'")
	seed := flag.Uint64("seed", 20050404, "master seed")
	flag.Parse()

	if strings.EqualFold(*which, "all") {
		for _, id := range experiments.Names() {
			r, _ := experiments.ByID(id, *seed)
			fmt.Println(r)
		}
		return
	}
	r, ok := experiments.ByID(*which, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n  %s\n  all\n",
			*which, strings.Join(experiments.Names(), " "))
		os.Exit(2)
	}
	fmt.Println(r)
}
