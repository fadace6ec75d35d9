#!/usr/bin/env bash
# A/B-compares two commits on one workload with identical benchmark code.
# Run from the root of a git checkout:
#
#	bash perfbench/ab.sh <base-commit> <change-commit> <workload> [pairs] [seconds]
#
# Both commits are exported with git archive under .bench_build/ab/, and
# this checkout's perfbench/ directory is copied over each, so only the
# program differs. Runs alternate which side goes first, one seed per pair,
# and the script prints each end-to-end metric's median and quartiles per
# side, plus the share of pairs the change won.
set -euo pipefail

base=$1 change=$2 workload=$3 pairs=${4:-10} seconds=${5:-30}
root=$(pwd)
work=$root/.bench_build/ab
rm -rf "$work"
mkdir -p "$work/base" "$work/change" "$work/results"
for side in base change; do
	git archive "${!side}" | tar -x -C "$work/$side"
	rm -rf "$work/$side/perfbench"
	cp -R "$root/perfbench" "$work/$side/perfbench"
	cp "$root/BENCHMARK.json" "$work/$side/BENCHMARK.json"
done

run() { # side seed
	(cd "$work/$1" && CARGO_TARGET_DIR=.bench_build bash perfbench/run.sh \
		--workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$work/results/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done

python3 - "$work/results" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys
res, bm = sys.argv[1], json.load(open(sys.argv[2]))
side = {s: [json.loads(l) for l in open(f"{res}/{s}.jsonl")] for s in ("base", "change")}
for s, runs in side.items():
    bad = [r for r in runs if not r["correct"]]
    if bad:
        print(f"{s}: {len(bad)} runs failed their output checks")
for m in bm["end_to_end"]:
    n, lower = m["name"], m["better"] == "lower"
    b = [r["metrics"][n]["value"] for r in side["base"]]
    c = [r["metrics"][n]["value"] for r in side["change"]]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    qb, qc = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
    print(f"{n:14s} base {statistics.median(b):.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
          f"change {statistics.median(c):.4g} [{qc[0]:.4g}, {qc[2]:.4g}]  "
          f"change better in {wins}/{len(b)} pairs  {m['unit']}")
PY
