// Command decos-conform runs every scenario pack in a directory against
// all three classification stages — the DECOS rule engine, the OBD
// threshold baseline and the Bayesian posterior stage — and scores the
// packs' declared expectations into a machine-readable report. Every
// classifier column carries its per-leg wall-clock cost, in the table
// and in the JSON report.
//
// Usage:
//
//	decos-conform [-dir packs/] [-pack NAME] [-json] [-o report.json]
//
// Without -dir the nearest packs/ directory is discovered by walking up
// from the working directory. Exit status is 0 when every pack passes,
// 1 when any pack fails its minimum score, 2 on load errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"decos/internal/pack"
	"decos/internal/scenario"
)

func main() {
	dir := flag.String("dir", "", "pack directory (default: nearest packs/ upward from the working directory)")
	only := flag.String("pack", "", "run only the pack with this name")
	asJSON := flag.Bool("json", false, "print the report as JSON instead of a table")
	out := flag.String("o", "", "also write the JSON report to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, all, err := pack.LoadDir(*dir)
	switch {
	case errors.Is(err, pack.ErrNoPacksDir):
		fmt.Fprintln(os.Stderr, "decos-conform: no packs/ directory found; pass -dir")
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case len(all) == 0:
		fmt.Fprintf(os.Stderr, "decos-conform: no packs in %s\n", d)
		os.Exit(2)
	}
	*dir = d

	var manifests []*pack.Manifest
	for _, m := range all {
		if *only == "" || m.Name == *only {
			manifests = append(manifests, m)
		}
	}
	if len(manifests) == 0 {
		fmt.Fprintf(os.Stderr, "decos-conform: no pack named %q in %s\n", *only, *dir)
		os.Exit(2)
	}

	rep := scenario.ConformAll(ctx, manifests)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		fmt.Print(rep.Format())
	}
	if rep.Failed > 0 || ctx.Err() != nil {
		os.Exit(1)
	}
}
