GO ?= go

.PHONY: check test race bench benchfull benchall build fmt vet conform metrics-demo whatif-demo

# Commit gate: gofmt (failing), vet, build, full tests, and a targeted
# -race leg over the concurrent packages (scenario, warranty, engine).
check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast perf gate: run every root benchmark once (a smoke run, not a
# measurement), then the allocation guards and the within-run
# throughput-ratio test of perf_guard_test.go.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x .
	$(GO) test -run 'TestAllocGuard|TestBinaryIngestRatio' -v .

# Performance measurement: the repo benchmark (BENCHMARK.json, bench/)
# over 5 runs per seed, reporting medians and quartile spreads. To compare
# a change, run it first in a checkout of the parent commit on the same
# host and pass that run's results directory as BASE=DIR.
benchfull:
	bash bench/repeat.sh 5

# Every benchmark in the repository.
benchall:
	$(GO) test -bench=. -benchmem ./...

# Live-telemetry demo: decos-fleetd under its built-in load generator,
# /v1/metrics curled in both views, SIGTERM shutdown with the final
# accounting line. ADDR/VEHICLES/ROUNDS overridable.
metrics-demo:
	./scripts/metrics-demo.sh

# Scenario-pack conformance gate: every manifest under packs/ scored
# against the DECOS, OBD and Bayesian classifiers (cmd/decos-conform).
conform:
	$(GO) run ./cmd/decos-conform

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Counterfactual replay demo: record a faulted Fig. 10 run with engine
# checkpoints, then localize the fault with decos-whatif (remove,
# wrong-fru and inject hypotheses against the recorded trace); a last leg
# fails unless removing a recorded SEU makes the replay diverge.
whatif-demo:
	./scripts/whatif-demo.sh
