#!/usr/bin/env bash
# A/B evidence for a performance claim on the end-to-end benchmark, in one
# command: ROADMAP ground rule (a).
#
#   scripts/ab.sh <parent-rev> <workload> <seed> <pairs> [<metric>]
#
# Exports <parent-rev> and HEAD with `git archive` into temporary
# directories, builds each once with BENCHMARK.json's `command`, then runs
# `<pairs>` alternating pairs of that command with `--workload <workload>
# --seed <seed> --seconds 20 --trace 0` (even pairs parent first, odd pairs
# change first). Prints every run's value of the claimed <metric> (default
# `server_actions_per_s`), then per side its median, quartiles and the pairs
# that side won, every end-to-end metric's median and range, whether every
# run was `"correct": true` with `failed` 0, and the metrics that read the
# same in every run of both sides. Runs pass `--report`, so for a run that
# printed no metrics (a `loopback` run whose generator ran late in every
# rep, say) it also prints the claimed metric of each of its reps, marked
# `invalid` where the harness disowned the rep, and how many reps were
# valid. Those per-rep values are evidence only: the medians, quartiles and
# pair wins use nothing but the metrics the runs printed.
#
# Everything it writes (exports, target directories, run output) lives in
# one temporary directory, removed on exit: the repository, bench/ included,
# is left as it was. Commit the change first: HEAD is what is measured.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs> [<metric>]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
seed=$3
pairs=$4
metric=${5:-server_actions_per_s}

repo=$(cd "$(dirname "$0")/.." && git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The benchmark command, one argument per line.
mapfile -t cmd < <(python3 -c '
import json, sys
for a in json.load(open(sys.argv[1]))["command"]:
    print(a)
' "$repo/BENCHMARK.json")
# The same command with `cargo run` as `cargo build` and no program
# arguments: the one build of each side.
mapfile -t build < <(printf '%s\n' "${cmd[@]}" | sed -e 's/^run$/build/' -e '/^--$/,$d')

for side in parent change; do
    rev=$parent_rev
    [ "$side" = change ] && rev=HEAD
    mkdir -p "$tmp/$side/src"
    git -C "$repo" archive "$rev" | tar -x -C "$tmp/$side/src"
    echo "building $side ($(git -C "$repo" rev-parse --short "$rev"))" >&2
    (cd "$tmp/$side/src" && CARGO_TARGET_DIR=$tmp/$side/target "${build[@]}")
done

run() { # side, pair
    local side=$1 k=$2
    (cd "$tmp/$side/src" && CARGO_TARGET_DIR=$tmp/$side/target "${cmd[@]}" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace 0 --report \
        --out "$tmp/$side/out.$k" 2> "$tmp/$side/err.$k" | tail -n 1 > "$tmp/$side/run.$k") || true
}

for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then run parent "$k"; run change "$k"; else run change "$k"; run parent "$k"; fi
    echo "pair $((k + 1)) of $pairs done" >&2
done

python3 - "$repo/BENCHMARK.json" "$tmp" "$pairs" "$metric" "$workload" "$seed" <<'EOF'
import json, statistics, sys

spec, tmp, pairs, metric, workload, seed = sys.argv[1:7]
spec = json.load(open(spec))
pairs = int(pairs)
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
if metric not in better:
    sys.exit(f"{metric} is not an end-to-end metric of BENCHMARK.json")

def load(side):
    runs = []
    for k in range(pairs):
        try:
            runs.append(json.load(open(f"{tmp}/{side}/run.{k}")))
        except (OSError, ValueError):
            runs.append(None)
    return runs

sides = {s: load(s) for s in ("parent", "change")}

def value(run, name):
    if run is None or name not in run.get("metrics", {}):
        return None
    return run["metrics"][name]["value"]

def reps(side, k):
    try:
        return json.load(open(f"{tmp}/{side}/out.{k}/{workload}.rep.json"))["reps"]
    except (OSError, ValueError, KeyError):
        return None

def ahead(a, b, name):
    if a is None or b is None:
        return False
    return a > b if better[name] == "higher" else a < b

print(f"{workload}, seed {seed}, {pairs} pairs, claimed metric {metric} ({better[metric]} is better)")
for side, runs in sides.items():
    vals = ["missing" if value(r, metric) is None else f"{value(r, metric):.6g}" for r in runs]
    print(f"  {side} runs: {' '.join(vals)}")
    for k, r in enumerate(runs):
        if value(r, metric) is None:
            gates = [l.strip() for l in open(f"{tmp}/{side}/err.{k}") if "GATE FAILED" in l]
            print(f"    {side} run {k + 1} missed: {gates[0] if gates else 'no verdict line'}")
            rs = reps(side, k)
            if rs:
                vals = [f"{rep['calibrated'].get(metric, {}).get('value', float('nan')):.6g}"
                        + ("" if rep["valid"] else " invalid") for rep in rs]
                valid = sum(1 for rep in rs if rep["valid"])
                print(f"      its reps ({valid} of {len(rs)} valid): {', '.join(vals)}")
for side, other in (("parent", "change"), ("change", "parent")):
    runs = sides[side]
    vals = [v for v in (value(r, metric) for r in runs) if v is not None]
    won = sum(ahead(value(a, metric), value(b, metric), metric)
              for a, b in zip(runs, sides[other]))
    correct = all(r is not None and r.get("correct") is True and r.get("failed") == 0 for r in runs)
    print(f"{side}:")
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        print(f"  {metric}: median {med:.6g}, quartiles {q1:.6g} - {q3:.6g} "
              f"(distance {q3 - q1:.6g}), pairs won {won} of {pairs}")
    for m in spec["end_to_end"]:
        mv = [v for v in (value(r, m["name"]) for r in runs) if v is not None]
        if mv:
            spread = f"median {statistics.median(mv):.6g} (min {min(mv):.6g}, max {max(mv):.6g})"
        else:
            spread = "missing"
        print(f"  {m['name']:<22} {spread} {m['unit']} ({len(mv)} runs)")
    print(f"  correct: {str(correct).lower()}")
pv = [v for v in (value(r, metric) for r in sides["parent"]) if v is not None]
cv = [v for v in (value(r, metric) for r in sides["change"]) if v is not None]
if pv and cv:
    print(f"change / parent median: {statistics.median(cv) / statistics.median(pv):.4f}")
same = [m["name"] for m in spec["end_to_end"]
        if all(r is not None for s in sides.values() for r in s)
        and len({value(r, m["name"]) for s in sides.values() for r in s}) == 1]
print(f"identical in every run of both sides: {', '.join(same) or 'none'}")
EOF
