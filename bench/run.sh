#!/usr/bin/env bash
# The one command: build the benchmark, run the workloads, print every
# end-to-end and per-layer metric by name with its unit, write
# bench/out/results.json, and exit non-zero if any correctness gate fails.
#
#   bench/run.sh [--workload <name>]... [--seed <n>] [--reps <k>] [--seconds <s>]
#
# With no --workload all four run. Each workload runs in its own process
# (peak RSS is per process): warm-up, measured reps, then the traced rep.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
repo_dir=$(dirname "$bench_dir")
out_dir=$bench_dir/out
# Share the root workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$repo_dir/target}

workloads=()
seed=1
pass=()
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workloads+=("$2"); shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --reps | --seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "usage: $0 [--workload <name>]... [--seed <n>] [--reps <k>] [--seconds <s>]" >&2; exit 2 ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(crowd sprawl melee loopback)

cd "$repo_dir"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin=$CARGO_TARGET_DIR/release/seve-e2e
commit=$(git -C "$repo_dir" rev-parse --short HEAD 2>/dev/null || echo unknown)
rustc_version=$(rustc --version)

mkdir -p "$out_dir"
status=0
parts=()
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$seed" --trace 1 --report --out "$out_dir" \
        --commit "$commit" --rustc "$rustc_version" "${pass[@]}" | sed '$d' || status=1
    parts+=("$out_dir/$w.rep.json")
done

{
    printf '{"workloads": [\n'
    sep=''
    for p in "${parts[@]}"; do
        [ -f "$p" ] || continue
        printf '%s' "$sep"
        tr -d '\n' < "$p"
        sep=$',\n'
    done
    printf '\n]}\n'
} > "$out_dir/results.json"
echo "wrote $out_dir/results.json"
[ $status -eq 0 ] || echo "A CORRECTNESS GATE FAILED (see GATE FAILED lines above)" >&2
exit $status
