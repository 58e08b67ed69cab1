#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh -workload fleet -seed 7 -seconds 10 -trace 0
#
# The build cache, temporary files, binary and traced-run profiles all
# stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/decos-bench" .)
exec "$out/decos-bench" "$@"
