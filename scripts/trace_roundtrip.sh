#!/usr/bin/env bash
# Trace transport round-trip check: drive adversarial workloads through
# writeall_cli with the JSONL sink and the binary sink (same seed — the
# engine's event stream is deterministic, so the two runs emit the same
# events), then require
#   * `trace_cli check` to pass the stream-invariant audit on both files,
#   * binary -> jsonl conversion to reproduce the engine's JSONL bytes
#     exactly (and jsonl -> binary the engine's binary bytes),
#   * `trace_cli check A B` to find the decoded event streams identical,
#   * `trace_cli stat` of both files to agree line for line.
# One case runs §5's off-line adversary: a schedule recorded with --record
# under one seed, re-run with --pattern-in under another.
# Exits non-zero on the first violation. This is the CI gate for the
# lossless-transport contract in docs/observability.md.
#
# Usage: scripts/trace_roundtrip.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}
cli="$build_dir/examples/writeall_cli"
trace_cli="$build_dir/examples/trace_cli"

for bin in "$cli" "$trace_cli"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found — build first:" >&2
    echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
    exit 1
  fi
done

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT

status=0

# Workloads: heavy random fail/restart churn and the thrashing worst case,
# on the algorithms whose traces exercise every event kind (phases, halts,
# failures, restarts).
run_case() {
  local label=$1; shift
  local jsonl="$work_dir/$label.jsonl"
  local binary="$work_dir/$label.bin"

  # An unsolved run (e.g. thrashing into the slot limit) exits non-zero but
  # still writes a complete trace — the slot_limit run_end is part of the
  # round-trip coverage, not a script failure.
  "$cli" "$@" --trace-out "$jsonl" >/dev/null || true
  "$cli" "$@" --trace-out "$binary" >/dev/null || true

  local fail=0
  "$trace_cli" check "$jsonl" >/dev/null || fail=1
  "$trace_cli" check "$binary" >/dev/null || fail=1

  "$trace_cli" convert "$binary" "$work_dir/$label.from-bin.jsonl" >/dev/null
  cmp -s "$jsonl" "$work_dir/$label.from-bin.jsonl" || fail=1
  "$trace_cli" convert "$jsonl" "$work_dir/$label.from-jsonl.bin" >/dev/null
  cmp -s "$binary" "$work_dir/$label.from-jsonl.bin" || fail=1

  "$trace_cli" check "$jsonl" "$binary" >/dev/null || fail=1

  "$trace_cli" stat "$jsonl" > "$work_dir/$label.stat.jsonl.txt"
  "$trace_cli" stat "$binary" > "$work_dir/$label.stat.bin.txt"
  diff "$work_dir/$label.stat.jsonl.txt" "$work_dir/$label.stat.bin.txt" \
    >/dev/null || fail=1

  local jsonl_bytes binary_bytes
  jsonl_bytes=$(wc -c < "$jsonl")
  binary_bytes=$(wc -c < "$binary")
  if [ "$fail" = 0 ]; then
    echo "OK   $label (jsonl ${jsonl_bytes} B, binary ${binary_bytes} B)"
  else
    echo "FAIL $label: transports disagree or invariants violated" >&2
    status=1
  fi
}

run_case vx-random --algo VX --n 4096 --p 512 --seed 3 \
  --adversary random --fail 0.1 --restart 0.4
run_case x-thrashing --algo X --n 2048 --p 256 --seed 5 \
  --adversary thrashing --max-slots 400
run_case w-burst --algo W --n 4096 --p 512 --seed 7 \
  --adversary burst --burst-period 4 --burst-count 64

# Off-line: X's schedule recorded under random faults (seed 1), run with
# --pattern-in under seed 2.
schedule="$work_dir/x-random.schedule.jsonl"
"$cli" --algo X --n 2048 --p 256 --seed 1 --adversary random --fail 0.1 \
  --restart 0.4 --record "$schedule" >/dev/null
run_case x-offline --algo X --n 2048 --p 256 --seed 2 --pattern-in "$schedule"

if [ "$status" = 0 ]; then
  echo "trace round-trip OK: binary and JSONL streams are interconvertible"
fi
exit "$status"
