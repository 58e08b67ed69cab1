#!/bin/sh
# Lists the functions declared under internal/ that no program links:
# every main package (cmd/, examples/, tools/ and the bench/ module) is
# built with inlining off (-gcflags=all=-l, so small functions keep their
# symbols), the text symbols under decos/ are collected from `go tool nm`,
# and every `func` declared in a non-test file under internal/ that is not
# among them is printed as pkg.Func or pkg.Type.Method.
#
# A listed function must be on the keep list below with the rule that keeps
# it; the script exits 1 when one is not. Rules:
#   1  a String method, reached by fmt through an interface
#   2  a reference implementation a test compares against
#   3  a root perf guard or benchmark needs it to measure what it measures
#   4  a paper or ROADMAP artifact
set -eu

cd "$(dirname "$0")/.."

# name, rule, reason
keep='
internal/core.SpaceSignature.String 1 prints a Fig. 8 pattern cell
internal/core.TimeSignature.String 1 prints a Fig. 8 pattern cell
internal/core.ValueSignature.String 1 prints a Fig. 8 pattern cell
internal/core.Pattern.String 1 prints a Fig. 8 row
internal/whatif.HypKind.String 1 prints a hypothesis kind
internal/diagnosis.Assessor.EvaluateNow 3 TestAllocGuardAssessorEpoch and BenchmarkAssessorEpoch time one epoch alone
internal/component.Environment.Actuations 3 TestAllocGuardBoundedStores checks the 4096-command actuator cap
internal/core.Fig8Patterns 4 the Fig. 8 pattern table of the paper
internal/component.GatewayJob.Reset 4 the hidden gateways of paper section II-B (DESIGN section 4)
internal/component.GatewayJob.Step 4 the hidden gateways of paper section II-B (DESIGN section 4)
internal/warranty.MergeSnapshots 4 the shard-merged warranty of DESIGN section 10 and the north star
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for p in $(go list ./cmd/... ./examples/... ./tools/...); do
    go build -gcflags=all=-l -o "$tmp/$(echo "$p" | tr / _)" "$p"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bench" .)

# Linked symbols: decos/internal/pkg.(*T[go.shape...]).M.func1-fm →
# internal/pkg.T.M.
for b in "$tmp"/*; do
    go tool nm "$b"
done | sed -n 's/^ *[0-9a-f]* [Tt] decos\/\(internal\/\)/\1/p' | sed '
    :b
    s/\[[^][]*\]//g
    tb
    s/-fm$//
    s/\.\(func\|gowrap\|deferwrap\)[0-9][0-9.]*$//
    s/(\*\{0,1\}\([^)]*\))/\1/
' | sort -u >"$tmp/linked"

# Declared functions: `func Name(`, `func (r *T[K]) Name(` → pkg.Name, pkg.T.Name.
find internal -name '*.go' ! -name '*_test.go' | while read -r f; do
    awk -v pkg="${f%/*}" '/^func / {
        s = substr($0, 6); t = ""
        if (s ~ /^\(/) {
            t = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 1)
            sub(/\[.*/, "", t); sub(/.* /, "", t); sub(/^\*/, "", t); t = t "."
        }
        sub(/^ */, "", s); match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
        name = substr(s, 1, RLENGTH)
        if (t != "" || name != "init") print pkg "." t name
    }' "$f"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unreached"

status=0
while read -r fn; do
    why=$(echo "$keep" | awk -v f="$fn" '$1 == f { $1 = ""; sub(/^ /, ""); print }')
    if [ -n "$why" ]; then
        echo "$fn kept: rule $why"
    else
        echo "$fn NOT ON KEEP LIST"
        status=1
    fi
done <"$tmp/unreached"
exit $status
