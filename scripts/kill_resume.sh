#!/usr/bin/env bash
# Kill-and-resume demonstration (docs/resilience.md §3): run a Write-All
# workload three ways and prove the checkpoint/restore path is bit-exact.
#
#   1. baseline      — straight run, no checkpointing;
#   2. crashed       — same run with --checkpoint/--checkpoint-every, killed
#                      (via --crash-at-slot, a simulated hard exit inside the
#                      checkpoint hook) partway through; the file on disk
#                      holds a checkpoint OLDER than the crash point, so the
#                      resume must re-execute the gap;
#   3. resumed       — `--resume FILE` alone: the checkpoint's meta carries
#                      the run spec (algo, n, p, seed, adversary, memory
#                      model), so the resume passes no other flag.
#
# The resumed run's S / S' / |F| / parallel-time lines must equal the
# baseline's exactly; any divergence exits nonzero. The triple runs twice:
# on reliable memory, and under --memory-model persistent-cache
# --persist-every 3 (its cache-flush count is part of the fingerprint).
#
# A second part kills for real: eight times, a run that checkpoints every
# slot gets SIGKILL after 1-4 s, most likely mid-write. The checkpoint is
# written to a temp file and renamed into place, so whatever the file on
# disk holds must resume, again from `--resume FILE` alone, to the straight
# run's fingerprint. CI runs this script, also on the sanitizer build.
#
# Usage: scripts/kill_resume.sh [build-dir] [algo] [n] [p]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build}
algo=${2:-VX}
n=${3:-4096}
p=${4:-256}

cli="$build_dir/examples/writeall_cli"
if [ ! -x "$cli" ]; then
  echo "error: $cli not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

common=(--algo "$algo" --n "$n" --p "$p" --adversary thrashing)
fingerprint() {
  grep -E "solved|completed S|attempted S'|\|F\||parallel time|persists" "$1"
}

# baseline -> crashed -> resumed under the extra flags "$@"; the resume
# gets only the checkpoint.
triple() {
  echo "== baseline run $*"
  "$cli" "${common[@]}" "$@" >"$workdir/baseline.txt"
  fingerprint "$workdir/baseline.txt"

  echo "== crashed run (checkpoint every 64 slots, killed at slot >= 512)"
  rm -f "$workdir/ck.rfck"
  "$cli" "${common[@]}" "$@" \
    --checkpoint "$workdir/ck.rfck" --checkpoint-every 64 --crash-at-slot 512
  if [ ! -s "$workdir/ck.rfck" ]; then
    echo "FAIL: the crashed run left no checkpoint behind" >&2
    exit 1
  fi

  echo "== resumed run"
  "$cli" --resume "$workdir/ck.rfck" >"$workdir/resumed.txt"
  fingerprint "$workdir/resumed.txt"

  if diff <(fingerprint "$workdir/baseline.txt") \
          <(fingerprint "$workdir/resumed.txt") >"$workdir/diff.txt"; then
    echo "PASS: resumed run is bit-identical to the baseline"
  else
    echo "FAIL: resumed run diverged from the baseline:" >&2
    cat "$workdir/diff.txt" >&2
    exit 1
  fi
}
triple
triple --memory-model persistent-cache --persist-every 3

echo "== kill -9 during checkpoint writes (X, N=2^18, a checkpoint every slot)"
kill_flags=(--algo X --n 262144 --p 1024 --batch 1 --adversary random
            --fail 0.02 --restart 0.5 --seed 3)
"$cli" "${kill_flags[@]}" >"$workdir/kill_baseline.txt"
for delay in 1.0 2.5 1.5 3.5 2.0 4.0 3.0 1.2; do
  rm -f "$workdir/ck.rfck" "$workdir/ck.rfck.tmp"
  "$cli" "${kill_flags[@]}" \
    --checkpoint "$workdir/ck.rfck" --checkpoint-every 1 >/dev/null &
  pid=$!
  sleep "$delay"
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ ! -e "$workdir/ck.rfck" ]; then
    echo "  killed after ${delay}s: no checkpoint written yet"
    continue
  fi
  slot=$(head -1 "$workdir/ck.rfck" | grep -o '"slot":[0-9]*' || true)
  if ! "$cli" --resume "$workdir/ck.rfck" >"$workdir/kill_resumed.txt"; then
    echo "FAIL: resume after a kill at ${delay}s (${slot}) exited nonzero" >&2
    exit 1
  fi
  if ! diff <(fingerprint "$workdir/kill_baseline.txt") \
            <(fingerprint "$workdir/kill_resumed.txt") >"$workdir/diff.txt"; then
    echo "FAIL: resume after a kill at ${delay}s (${slot}) diverged:" >&2
    cat "$workdir/diff.txt" >&2
    exit 1
  fi
  echo "  killed after ${delay}s, resumed from ${slot}: bit-identical"
done
echo "PASS: every killed run resumed to the baseline"
