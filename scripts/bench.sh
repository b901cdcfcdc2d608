#!/usr/bin/env bash
# Perf harness for the push/closure hot paths.
#
# Runs the criterion routing benches (push_cycle + closure_micro +
# replay_micro) and then the bench_push, bench_replay, and bench_wire
# binaries: indexed vs linear candidate selection, Algorithm 6 closures, a
# fixed Manhattan People sweep, out-of-order replay reconciliation, and the
# encode-once egress path (pooled encode + shared-payload fan-out vs the
# per-message oracle), writing the medians to BENCH_push.json /
# BENCH_replay.json / BENCH_wire.json at the repo root. See EXPERIMENTS.md.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   seconds-scale subset, writes to temp files instead of
#             overwriting the checked-in BENCH_*.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    echo "== bench_push --smoke =="
    cargo run --release -p seve-bench --bin bench_push -- \
        --smoke --out target/BENCH_push.smoke.json
    echo "== closure-index smoke check =="
    # bench_push asserts indexed == linear closure results in-process; here we
    # additionally require that the inverted-index table was emitted and that
    # the index did strictly less work than a full scan.
    grep -q '"closure_indexed"' target/BENCH_push.smoke.json
    python3 - <<'EOF'
import json
rows = json.load(open("target/BENCH_push.smoke.json"))["closure_indexed"]
assert rows, "closure_indexed table is empty"
for r in rows:
    assert r["entries_visited"] < r["queue_len"], \
        f"index visited {r['entries_visited']} of {r['queue_len']} entries"
print("closure_indexed ok:", rows)
EOF
    echo "== parallel-analyze + event-queue smoke check =="
    # bench_push asserts in-process that the batched analysis matches the
    # sequential oracle bit for bit, and that the timer wheel pops the
    # identical event sequence as the heap over a full run. Here we require
    # the tables exist, the partition actually fanned out, and the
    # equivalence flag was set. Wall-clock speedup is host-dependent —
    # recorded in the JSON and printed here, never asserted in CI (a 2-core
    # host reads 0.35–0.70× on its non-oversubscribed row).
    python3 - <<'EOF'
import json
j = json.load(open("target/BENCH_push.smoke.json"))
assert j["meta"]["event_queue_equiv"] is True, "wheel/heap equivalence not verified"
cores = j["meta"]["host_parallelism"]
rows = j["analyze_parallel"]
assert rows, "analyze_parallel table is empty"
for r in rows:
    assert r["components"] > 1, f"tick did not partition: {r}"
    assert r["threads"] > 1, f"parallel run used {r['threads']} threads"
    assert r["oversubscribed"] == (r["threads"] > cores), \
        f"oversubscription flag inconsistent with host_parallelism={cores}: {r}"
    if cores >= 2 and not r["oversubscribed"] and r["speedup"] < 1.0:
        print(f"note: parallel analyze {r['speedup']:.2f}x of sequential "
              f"at {r['threads']} threads on a {cores}-core host")
sims = j["sim_scale"]
assert sims, "sim_scale table is empty"
for r in sims:
    assert r["clients"] >= 1024, f"sim_scale row below 1024 clients: {r}"
    assert r["analyze_parallel_ticks"] > 0, \
        f"{r['clients']}-client run never cleared the parallel gate"
print("analyze_parallel ok:", rows)
print("sim_scale ok:", sims)
EOF
    echo "== bench_wire --smoke =="
    cargo run --release -p seve-bench --bin bench_wire -- \
        --smoke --out target/BENCH_wire.smoke.json
    echo "== wire-path smoke check =="
    # bench_wire asserts in-process that the pooled encoding is
    # byte-identical to the to_bytes oracle (including over recycled
    # buffers) and that the pool stops allocating once warm. Here we
    # require those flags were set, that the broadcast-heavy fixture
    # actually shared frames, and that the pool served the steady state.
    # (Wall-clock speedup is host-dependent — recorded in the JSON, never
    # asserted in CI.)
    python3 - <<'EOF'
import json
j = json.load(open("target/BENCH_wire.smoke.json"))
assert j["meta"]["pooled_matches_oracle"] is True, "pooled bytes != oracle"
assert j["meta"]["pool_steady_state_zero_alloc"] is True, \
    "pool kept allocating after warm-up"
fx = j["broadcast_fixture"]
total = fx["frames_encoded"] + fx["frames_reused"]
assert total > 0, "broadcast fixture emitted nothing"
assert fx["reuse_ratio"] >= 0.5, \
    f"broadcast fixture reused only {fx['reuse_ratio']:.0%} of frames"
for r in j["push_cycle_egress"]:
    assert r["pool_hits"] > 10 * r["pool_misses"], \
        f"pool hits did not dominate at {r['clients']} clients: {r}"
print("wire ok: reuse_ratio=%.2f," % fx["reuse_ratio"], j["push_cycle_egress"])
EOF
    echo "== bench_replay --smoke =="
    cargo run --release -p seve-bench --bin bench_replay -- \
        --smoke --out target/BENCH_replay.smoke.json
    echo "== replay-checkpoint smoke check =="
    # bench_replay asserts indexed == oracle results and digests in-process;
    # here we additionally require that the checkpoint chain and commute
    # gate did strictly less replay work than the full-rebuild oracle.
    python3 - <<'EOF'
import json
rows = json.load(open("target/BENCH_replay.smoke.json"))["replay_storm"]
assert rows, "replay_storm table is empty"
for r in rows:
    assert r["entries_replayed"] < r["entries_replayed_linear"], \
        f"checkpointed log replayed {r['entries_replayed']} of " \
        f"{r['entries_replayed_linear']} oracle entries"
    assert r["commute_hits"] > 0, "storm exercised no commute splices"
    assert r["checkpoint_hits"] > 0, "storm exercised no checkpoint resumes"
print("replay_storm ok:", rows)
EOF
    exit 0
fi

echo "== criterion: push_cycle =="
cargo bench -p seve-bench --bench push_cycle

echo "== criterion: closure_micro =="
cargo bench -p seve-bench --bench closure_micro

echo "== criterion: replay_micro =="
cargo bench -p seve-bench --bench replay_micro

echo "== bench_push -> BENCH_push.json =="
cargo run --release -p seve-bench --bin bench_push -- --out BENCH_push.json

echo "== bench_replay -> BENCH_replay.json =="
cargo run --release -p seve-bench --bin bench_replay -- --out BENCH_replay.json

echo "== bench_wire -> BENCH_wire.json =="
cargo run --release -p seve-bench --bin bench_wire -- --out BENCH_wire.json
