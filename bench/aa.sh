#!/usr/bin/env bash
# A/A evidence: run two full sets back to back on the same build and print,
# per workload × end-to-end metric, both medians, their ratio, the bound from
# BENCHMARK.json, and pass/fail. On the direct workloads the exact metrics
# must also be bit-identical between the sets. Arguments go to run.sh.
# Writes bench/out/aa.txt; exits non-zero if any pair disagrees.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out_dir=$bench_dir/out

"$bench_dir/run.sh" "$@" > /dev/null
mv "$out_dir/results.json" "$out_dir/aa.a.rep.json"
"$bench_dir/run.sh" "$@" > /dev/null
cp "$out_dir/results.json" "$out_dir/aa.b.rep.json"

python3 - "$bench_dir/../BENCHMARK.json" "$out_dir/aa.a.rep.json" "$out_dir/aa.b.rep.json" <<'EOF' | tee "$out_dir/aa.txt"
import json, sys

spec, a, b = (json.load(open(p)) for p in sys.argv[1:4])
exact = {"response_ms_p50", "response_ms_p99", "bytes_per_action", "installed_share"}
ok = True
print(f"{'workload':<9} {'metric':<22} {'set A':>14} {'set B':>14} {'B/A':>8} {'bound':>6}  verdict")
for wa, wb in zip(a["workloads"], b["workloads"]):
    name = wa["workload"]
    assert name == wb["workload"]
    if not (wa["correct"] and wb["correct"]):
        ok = False
        print(f"{name:<9} a correctness gate failed")
    for m in spec["end_to_end"]:
        va = wa["end_to_end"][m["name"]]["value"]
        vb = wb["end_to_end"][m["name"]]["value"]
        ratio = vb / va
        verdict = "pass" if abs(ratio - 1) <= m["bound"] else "FAIL"
        if name != "loopback" and m["name"] in exact:
            verdict = "pass (identical)" if va == vb else "FAIL (not identical)"
        ok &= verdict.startswith("pass")
        print(f"{name:<9} {m['name']:<22} {va:>14.4f} {vb:>14.4f} {ratio:>8.4f} {m['bound']:>6}  {verdict}")
print("A/A:", "every pair within its bound" if ok else "SOME PAIR DISAGREES")
sys.exit(0 if ok else 1)
EOF
