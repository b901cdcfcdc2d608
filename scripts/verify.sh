#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --chaos: fault-tolerance smoke slice only. Seeded chaos soaks must end
# consistent with non-zero SessionStats (the faults really happened), and
# clean runs must report exactly zero coping counters (supervision is
# invisible when nothing goes wrong).
if [[ "${1:-}" == "--chaos" ]]; then
  echo "== chaos smoke =="
  cargo test -q -p seve --release --test fault_matrix -- \
    chaos clean_runs_have_zero_coping_counters
  echo "verify.sh --chaos: fault-tolerance smoke passed"
  exit 0
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== driver equivalence smoke =="
# Same seed through the discrete-event simulator and the threaded
# in-process backend must agree (bit-identical for one client).
cargo test -q -p seve --release --test driver_equivalence

echo "== parallel-analyze equivalence smoke =="
# A dense run on 4 analyze threads must be bit-identical (digests, drops,
# byte counts) to the sequential path, and the timer wheel to the heap.
cargo test -q -p seve --release --test parallel_analyze

echo "== no env probes on the replica hot path =="
if grep -n 'env::var' crates/core/src/{client,replay,pending}.rs; then exit 1; fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench smoke =="
cargo bench --workspace --no-run
scripts/bench.sh --smoke

echo "== e2e bench builds =="
# bench/ is a package of its own that the root workspace never compiles, so
# a library change can break it unseen. Build it, run its unit tests and two
# short workloads — `sprawl` (ingress/route/egress; bypasses client replay)
# and `crowd` (out-of-order inserts, resyncs, blinds, GC) — all in a
# throwaway directory: the step must leave every file under bench/ as it
# found it.
e2e_tmp=$(mktemp -d)
trap 'rm -rf "$e2e_tmp"' EXIT
bench_before=$(git status --porcelain -- bench)
(
  export CARGO_TARGET_DIR=$e2e_tmp/target
  cargo build --release --offline --manifest-path bench/Cargo.toml
  (cd bench && cargo test --offline -q)
  for workload in sprawl crowd; do
    "$CARGO_TARGET_DIR/release/seve-e2e" --workload "$workload" --reps 1 --seconds 2 \
      --out "$e2e_tmp/out" | tail -n 1 | grep -q '"correct": true'
  done
)
[ "$(git status --porcelain -- bench)" == "$bench_before" ]

echo "verify.sh: all checks passed"
