#!/bin/sh
# Repository check: formatting, vet, build, the full test suite, and a
# race-detector leg over the packages that actually run goroutines (the
# campaign workers, each resetting its own engine from vehicle to vehicle,
# the warranty daemon, the engine's context lifecycle, the telemetry
# registry's concurrent writers).
# Fails (non-zero) on any violation, including unformatted files.
#
# The full suite under -race is `make race`; this gate keeps the race leg
# targeted so a pre-commit run stays fast.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages) =="
go test -race ./internal/scenario/... ./internal/warranty/... ./internal/engine/... ./internal/telemetry/...

echo "== go test -race (bayes classification stage) =="
# The Bayesian stage's unit contracts (belief updates, framing,
# checkpoint round-trips). Its engine-level integration — Monte Carlo
# campaign workers, mid-run restores — already runs under race in the
# ./internal/scenario/... leg above.
go test -race ./internal/bayes/...

echo "== fuzz smoke (binary trace decoder) =="
# Ten seconds of coverage-guided input on the binary codec: the decoder
# must never panic and must report corruption with byte offsets. The
# committed seed corpus (golden stream, truncations, bit flips) runs as a
# plain test above; this leg explores beyond it.
go test -run='^$' -fuzz='^FuzzBinaryReader$' -fuzztime=10s ./internal/trace/

echo "== fuzz smoke (warranty stream ingest) =="
# Ten seconds of arbitrary NDJSON and binary bodies through the ingest
# path every HTTP request and in-process trace uses: it must never panic,
# and its pooled stream reader must leak nothing into the next call (a
# valid trace ingested afterwards must summarize exactly as in a fresh
# collector).
go test -run='^$' -fuzz='^FuzzIngestStream$' -fuzztime=10s ./internal/warranty/

echo "== fuzz smoke (warranty HTTP ingest) =="
# Ten seconds of arbitrary Content-Types, bodies and body bounds, declared
# or streamed, through POST /v1/ingest: the handler must never panic and
# must answer 200, 400, 413 or 415; a 415 ingests nothing, a 413 reports
# exactly what the collector holds, and a 200 summarizes as a direct
# ingest of the same body.
go test -run='^$' -fuzz='^FuzzIngestHTTP$' -fuzztime=10s ./internal/warranty/

echo "== fuzz smoke (warranty snapshot) =="
# Ten seconds of arbitrary bytes through the snapshot decode a restarted
# daemon runs on its state file: JSON decode and Validate must never
# panic, and a snapshot Validate accepts must load, merge and summarize
# without error.
go test -run='^$' -fuzz='^FuzzSnapshot$' -fuzztime=10s ./internal/warranty/

echo "== fuzz smoke (broadcast frame fan-out) =="
# Ten seconds of generated topologies and frames (intact, corrupted,
# omitted, timing, cleared, hand-built), with mixed statuses across a
# slot's receivers and some receivers powered off: consuming a slot must
# never panic, and one ConsumeSlot per slot must match a decode done
# separately at each powered receiver, at every receiver.
go test -run='^$' -fuzz='^FuzzFrameFanout$' -fuzztime=10s ./internal/vnet/

echo "== fuzz smoke (segmented log) =="
# Ten seconds of op streams (appends, near-tail inserts, front drops,
# reserves, resets) through the segmented log that holds the symptom and
# actuator histories: every state must read, segment by segment, exactly
# as a plain-slice model of the same ops.
go test -run='^$' -fuzz='^FuzzLog$' -fuzztime=10s ./internal/seglog/

echo "== fuzz smoke (engine checkpoint restore) =="
# Same contract for the restore path: checkpoint files travel through
# disks and uplinks, so corrupt or truncated bytes must surface as
# errors, never panics. Seeds: the committed v1 golden fixture plus
# truncated and bit-flipped variants.
go test -run='^$' -fuzz='^FuzzCheckpointReader$' -fuzztime=10s ./internal/engine/

echo "== fuzz smoke (checkpoint codec) =="
# The codec under the restore path, on its own: arbitrary streams and
# section bodies through the framing and every typed getter. Decoding
# must never panic, and no checked count may exceed the bytes left in
# its section (the bound that keeps corrupt input from driving huge
# allocations).
go test -run='^$' -fuzz='^FuzzDecoder$' -fuzztime=10s ./internal/ckpt/

echo "== fuzz smoke (scenario-pack manifests) =="
# Manifests are user-authored JSON files: malformed documents must be
# rejected with source/line/field errors, never a panic, and anything
# accepted must be fully validated and, for single-vehicle packs, must
# build an engine and run three rounds without panicking. Seeds: the
# shipped pack library plus JSON boundary fragments (duplicate keys,
# trailing content, out-of-range numbers, deep nesting).
go test -run='^$' -fuzz='^FuzzPackManifest$' -fuzztime=10s ./internal/pack/

echo "== bench module (vet + smoke tests) =="
# bench/ is its own Go module, so ./... above skips it. Its tests run
# every benchmark workload at a tiny scale plus the oracle and ledger
# checks; an internal/ API change that breaks the benchmark build fails
# here.
(cd bench && go vet ./... && go test ./...)

echo "OK"
