#!/usr/bin/env bash
# rfsp-bench correctness gate: run every workload BENCHMARK.json declares
# once, traced (so every decorator is in the loop), and fail unless its
# result line reports "correct":true and "failed":0. That covers the
# benchmark's own checks — reference equality, simulate() identity and
# traced transparency. Timings are printed but never gated.
#
# Usage: scripts/bench_check.sh [seconds-per-workload]   (default: 2)
set -euo pipefail

cd "$(dirname "$0")/.."
seconds=${1:-2}
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0

for w in $workloads; do
  # run.py prints nothing on stdout when the build or run fails.
  line=$(python3 rfsp-bench/run.py --workload "$w" --seed 1 \
         --seconds "$seconds" --trace 1 | tail -n 1) || true
  echo "$w: $line"
  if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
      "$line" 2>/dev/null; then
    echo "FAIL: $w" >&2
    status=1
  fi
done
exit $status
