#!/usr/bin/env bash
# Are two sets of runs of the same code the same within the bounds?
#
#   benchmark/noise_check.sh <n> [seconds]
#
# Builds the benchmark once, then runs two interleaved sets (A, B) of <n>
# full passes over the four workloads; pass i of both sets uses seed i, as
# the driver uses a fresh seed per run. Prints, per workload and end-to-end
# metric, both sets' medians and quartiles, their relative difference, each
# set's spread (quartile distance / median) and the bound from
# BENCHMARK.json. Exits non-zero if a difference or a spread exceeds its
# bound (setup_s: difference only), if a count differs between the sets, or
# if a run reports a failed operation. Run from the repository root.
set -euo pipefail
n="${1:?usage: benchmark/noise_check.sh <n> [seconds]}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pathdump_benchmark"
out="benchmark/out/noise-$$"
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for i in $(seq 1 "$n"); do
  for set in A B; do
    for w in $workloads; do
      "$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1 > "$out/$set-$w-$i.json"
      echo "pass $i set $set $w done" >&2
    done
  done
done
python3 - "$out" "$n" <<'PY'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
exact = {"bytes_per_op"}  # counts: the same seed must give the same value
bad = 0
print(f"{'workload':<14}{'metric':<16}{'median A':>14}{'median B':>14}{'diff':>8}{'spread A':>9}{'spread B':>9}{'bound':>7}")
for w in (w["name"] for w in bench["workloads"]):
    runs = {s: [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"FAILED OPERATIONS: {w} set {s}: {r['failed']} of {r['attempted']}")
                bad += 1
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        spread = {}
        for s in "AB":
            q = statistics.quantiles(vals[s], n=4) if n >= 2 else [med[s]] * 3
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        flags = []
        if abs(worse) > bound:
            flags.append("DIFF")
        if name != "setup_s" and max(spread.values()) > bound:
            flags.append("SPREAD")
        if name in exact and vals["A"] != vals["B"]:
            flags.append("COUNT DIFFERS")
        bad += len(flags)
        print(f"{w:<14}{name:<16}{med['A']:>14.6g}{med['B']:>14.6g}{worse:>+8.3f}{spread['A']:>9.4f}{spread['B']:>9.4f}{bound:>7} {' '.join(flags)}")
print("noise check", "FAILED" if bad else "passed")
sys.exit(1 if bad else 0)
PY
