#!/bin/sh
# Demo of the counterfactual replay diagnoser (`make whatif-demo`):
# record a Fig. 10 run with a permanent component fault, checkpointing
# the engine every EVERY rounds and tracing to NDJSON — then run
# decos-whatif three times against the recording:
#
#   1. remove    — "would the symptoms go away if the suspected FRU were
#                  replaced?" The factual replica is first cross-checked
#                  against the recorded trace, then the tool reports the
#                  first slot where the repaired counterfactual diverges
#                  and the final-verdict diff (the culprit exonerated).
#   2. wrong-fru — the misdiagnosis probe: move the same fault to the
#                  culprit's neighbour and show that the evidence
#                  distinguishes the two.
#   3. inject    — add a fault the recorded run did not have (a Bohrbug
#                  in the wheel-speed sensor job at 150 ms) and show
#                  where its symptoms first appear.
#
# A fourth leg records a second run with a single-event upset at the same
# instant and replays it with the upset removed: a repaired fault must do
# nothing, so the script fails unless the counterfactual diverges. A fifth
# records the first run again with -trace-format binary and repeats the
# remove leg against it: both encodings must cross-check alike.
#
# Every leg cross-checks the factual replica against the recorded trace:
# decos-whatif exits 2 on a mismatch, which fails the script, so CI runs
# it as an end-to-end check of decos-sim -fault → checkpoint → replay.
#
# Environment overrides: SEED (default 20050404), ROUNDS (400), AT (100,
# injection ms), EVERY (50, checkpoint cadence in rounds).
set -eu

cd "$(dirname "$0")/.."

SEED=${SEED:-20050404}
ROUNDS=${ROUNDS:-400}
AT=${AT:-100}
EVERY=${EVERY:-50}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/decos-whatif-demo.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

echo "== building decos-sim and decos-whatif =="
go build -o "$DIR/" ./cmd/decos-sim ./cmd/decos-whatif

echo
echo "== recording: permanent fault at ${AT}ms, checkpoints every ${EVERY} rounds =="
"$DIR/decos-sim" -seed "$SEED" -rounds "$ROUNDS" -fault permanent -at "$AT" \
    -checkpoint-every "$EVERY" -checkpoint-dir "$DIR" -trace "$DIR/trace.ndjson"

echo "== hypothesis: remove (replace the suspected FRU) =="
"$DIR/decos-whatif" -ckpt-dir "$DIR" -seed "$SEED" -rounds "$ROUNDS" \
    -fault permanent -at "$AT" -trace "$DIR/trace.ndjson" \
    -hypothesis remove -target 0

echo
echo "== hypothesis: wrong-fru (was the neighbour the real culprit?) =="
"$DIR/decos-whatif" -ckpt-dir "$DIR" -seed "$SEED" -rounds "$ROUNDS" \
    -fault permanent -at "$AT" -trace "$DIR/trace.ndjson" \
    -hypothesis wrong-fru -target 0

echo
echo "== hypothesis: inject (add a Bohrbug the run did not have, at 150ms) =="
"$DIR/decos-whatif" -ckpt-dir "$DIR" -seed "$SEED" -rounds "$ROUNDS" \
    -fault permanent -at "$AT" -trace "$DIR/trace.ndjson" \
    -hypothesis inject -h-fault bohrbug -h-at 150

echo
echo "== repair check: record an SEU at ${AT}ms, then remove it =="
mkdir "$DIR/seu"
"$DIR/decos-sim" -seed "$SEED" -rounds "$ROUNDS" -fault seu -at "$AT" \
    -checkpoint-every "$EVERY" -checkpoint-dir "$DIR/seu" -trace "$DIR/seu/trace.ndjson"
"$DIR/decos-whatif" -ckpt-dir "$DIR/seu" -seed "$SEED" -rounds "$ROUNDS" \
    -fault seu -at "$AT" -trace "$DIR/seu/trace.ndjson" \
    -hypothesis remove -target 0 > "$DIR/seu/whatif.txt"
cat "$DIR/seu/whatif.txt"
if ! grep -q "first divergence" "$DIR/seu/whatif.txt"; then
    echo "whatif-demo: removing the SEU changed nothing; a repaired fault must be inert" >&2
    exit 1
fi

echo
echo "== binary recording: the permanent-fault run traced as DCS-B, then remove =="
mkdir "$DIR/bin"
"$DIR/decos-sim" -seed "$SEED" -rounds "$ROUNDS" -fault permanent -at "$AT" \
    -checkpoint-every "$EVERY" -checkpoint-dir "$DIR/bin" -trace "$DIR/bin/trace.bin" \
    -trace-format binary >/dev/null
"$DIR/decos-whatif" -ckpt-dir "$DIR/bin" -seed "$SEED" -rounds "$ROUNDS" \
    -fault permanent -at "$AT" -trace "$DIR/bin/trace.bin" \
    -hypothesis remove -target 0
