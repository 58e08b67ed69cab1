#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json N times at each of two fixed seeds,
# the default 20050404 and the holdout 7, alternating the workload order
# from one round to the next. For each workload and seed it prints each
# metric's median and the distance between its quartiles as a share of the
# median (the spread), and the longest run's wall time, build included.
# Runs at one seed have the same inputs, so the spread is run-to-run
# noise; an end-to-end metric other than setup_s whose spread exceeds its
# bound is flagged.
#
#   bash bench/repeat.sh N
#
# With BASE=<results dir of an earlier repeat>, each median is also compared
# with that run's at the same workload and seed, and one worse by more than
# the bound is flagged. Results are kept under .bench_build/repeat.*; the
# directory is printed.
set -euo pipefail
n=${1:?usage: bench/repeat.sh N}
cd "$(dirname "$0")/.."
mkdir -p .bench_build
results=$(mktemp -d .bench_build/repeat.XXXXXX)
read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
read -ra order <<<"$workloads"
for ((i = 1; i <= n; i++)); do
	for seed in 20050404 7; do
		for w in "${order[@]}"; do
			t0=$EPOCHREALTIME
			bash bench/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 \
				2>>"$results/stderr.log" | tail -n 1 >"$results/$w.$seed.$i.json"
			echo "$w $seed $t0 $EPOCHREALTIME" >>"$results/wall.txt"
		done
		reversed=()
		for ((j = ${#order[@]} - 1; j >= 0; j--)); do reversed+=("${order[j]}"); done
		order=("${reversed[@]}")
	done
done
echo "results in $results"
python3 - "$results" "${BASE:-}" <<'EOF'
import glob, json, os, statistics, sys

results, base = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
wall = {}
for line in open(os.path.join(results, "wall.txt")):
    w, seed, t0, t1 = line.split()
    wall.setdefault((w, seed), []).append(float(t1) - float(t0))

def load(d, w, seed):
    runs = [json.load(open(f)) for f in sorted(glob.glob(os.path.join(d, f"{w}.{seed}.*.json")))]
    vals = {}
    for r in runs:
        for k, v in r["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
    return runs, vals

bad = 0
for w in (x["name"] for x in spec["workloads"]):
    for seed in ("20050404", "7"):
        runs, vals = load(results, w, seed)
        _, base_vals = load(base, w, seed) if base else ([], {})
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{w} seed {seed}: {len(runs)} runs, {failed} of {attempted} ops failed, "
              f"longest run {max(wall[(w, seed)]):.1f} s")
        bad += failed > 0 or not all(r["correct"] for r in runs)
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  {'vs base':>8}")
        for k, xs in vals.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            flags, change = [], ""
            if k in bounds:
                bound, better = bounds[k]
                if spread > bound and k != "setup_s":
                    flags.append(f"spread>{bound}")
                if base_vals.get(k):
                    b = statistics.median(base_vals[k])
                    worse = (med - b) / b if better == "lower" else (b - med) / b
                    change = f"{worse:+.4f}"
                    if worse > bound:
                        flags.append(f"worse>{bound}")
            bad += bool(flags)
            print(f"  {k:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {change:>8}  {' '.join(flags)}")
sys.exit(1 if bad else 0)
EOF
