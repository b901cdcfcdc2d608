#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --chaos: fault-tolerance smoke slice only. Seeded chaos soaks must end
# consistent with non-zero SessionStats (the faults really happened),
# clean runs must report exactly zero coping counters (supervision is
# invisible when nothing goes wrong), and both ends of a socket lane must
# keep every frame over seeded scripted streams.
if [[ "${1:-}" == "--chaos" ]]; then
  echo "== chaos smoke =="
  cargo test -q -p seve --release --test fault_matrix -- \
    chaos clean_runs_have_zero_coping_counters
  # The lane's scripted-stream properties over 10^5 seeds per side
  # (the default test run covers 2 000).
  cargo test -q -p seve-rt --release --lib -- --ignored scripted_streams_at_scale
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

echo "== no env probes in the library crates =="
if grep -rn 'env::var' crates/*/src; then exit 1; fi

echo "== no channel transport =="
# Every threaded backend runs rt's lanes, over TCP or in-memory pipes.
if grep -rn 'crossbeam::' crates/*/src; then exit 1; fi

echo "== DESIGN.md test citations resolve =="
# Each `module::fn` named after "test:" or "tests:" in DESIGN.md must be a
# fn under crates/ or tests/, and a bare name a test binary's file.
cited=$(tr '\n' ' ' < DESIGN.md | grep -oE 'tests?: *(`[^`]+`[,;]? *(and )?)+' |
  grep -oE '`[a-z0-9_:]+`' | tr -d '`' | sort -u)
unresolved=0
for c in $cited; do
  case $c in
    *::*) grep -rqE "fn ${c##*::}\b" crates tests ;;
    *) compgen -G "tests/$c.rs" > /dev/null || compgen -G "crates/*/tests/$c.rs" > /dev/null ;;
  esac || { echo "DESIGN.md cites a missing test: $c"; unresolved=1; }
done
[ "$unresolved" == 0 ]

echo "== only the cost model prices evaluations =="
# The simulator's CostModel (crates/core/src/cost.rs) is the one caller of
# GameWorld::eval_cost_micros: engines report evaluations to their meter
# and never price them themselves. Test modules (from `mod tests` on, and
# `tests.rs` files) may call it.
if awk 'FNR == 1 { live = 1 } /^mod tests/ { live = 0 }
        live && /eval_cost_micros\(/ && !/fn eval_cost_micros\(/ {
            print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' \
    $(find crates/*/src -name '*.rs' ! -name tests.rs ! -path crates/core/src/cost.rs); then
  exit 1
fi

echo "== doc links resolve =="
# A doc comment naming an item that is gone (a deleted type, field or
# method) fails here rather than rendering as plain text.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== e2e bench builds =="
# bench/ is a package of its own that the root workspace never compiles, so
# a library change can break it unseen. Build it, run its unit tests and
# all four workloads, short — `sprawl` (ingress/route/egress; bypasses
# client replay), `crowd` (out-of-order inserts, resyncs, blinds, GC),
# `melee` (the only one with interest filters, area culling and Algorithm 7
# drop marks, so the only one whose push cycle meets dropped entries) and
# `loopback` (the only one through `run_server_with`, `driver::node` and
# `driver::session`) — all in a throwaway directory: the step must leave
# every file under bench/ as it found it.
e2e_tmp=$(mktemp -d)
trap 'rm -rf "$e2e_tmp"' EXIT
bench_before=$(git status --porcelain -- bench)
(
  export CARGO_TARGET_DIR=$e2e_tmp/target
  cargo build --release --offline --manifest-path bench/Cargo.toml
  (cd bench && cargo test --offline -q)
  e2e() {
    "$CARGO_TARGET_DIR/release/seve-e2e" --workload "$1" --reps "$2" --seconds 2 \
      --out "$e2e_tmp/out" 2> "$e2e_tmp/err" | tail -n 1 > "$e2e_tmp/verdict" || true
    cat "$e2e_tmp/err" >&2
    grep -q '"correct": true' "$e2e_tmp/verdict"
  }
  e2e sprawl 1
  e2e crowd 1
  e2e melee 1
  # `loopback` paces real sockets against the wall clock, and the harness
  # disowns a rep whose generator ran late on a busy host. Retry once if —
  # and only if — that verdict (and the missing metrics that follow from
  # it) is the run's only complaint.
  e2e loopback 2 || {
    grep -q 'GATE FAILED: no rep is valid: the generator ran late' "$e2e_tmp/err"
    [ -z "$(grep 'GATE FAILED' "$e2e_tmp/err" | grep -v \
      -e 'no rep is valid: the generator ran late' \
      -e 'did not produce every declared end-to-end metric')" ]
    echo "loopback: the generator ran late in every rep; retrying once" >&2
    e2e loopback 2
  }
)
[ "$(git status --porcelain -- bench)" == "$bench_before" ]

echo "== bench smoke =="
# The Criterion benches must build; the 1024- and 2048-client simulator
# runs and every quick-scale experiment must finish with zero Theorem 1
# violations (repro panics on any).
cargo bench --workspace --no-run
cargo run --release -p seve-bench --bin repro -- sim-scale
cargo run --release -p seve-bench --bin repro -- --quick all > /dev/null

echo "verify.sh: all checks passed"
