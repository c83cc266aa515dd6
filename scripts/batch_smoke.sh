#!/usr/bin/env bash
# Batched-backend smoke check: run every batch-capable Write-All algorithm
# at the E1 configuration (fault-free, N = P = 2^16) through writeall_cli
# twice — interpreter and batched backend — and fail if any run misses the
# goal or if any model-visible number (S, S', |F|, slots, sigma) differs
# between the modes. Timing is printed for the log but never gated: CI
# machines are too noisy to assert speedups, and bit-identity is the
# invariant worth a red build.
#
# Usage: scripts/batch_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}
cli="$build_dir/examples/writeall_cli"

if [ ! -x "$cli" ]; then
  echo "error: $cli not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

n=65536
status=0

for algo in W V X VX; do
  # The interpreter's tally is the reference the batch run must reproduce.
  for batch in 0 1; do
    start=$(date +%s%N)
    if ! out=$("$cli" --algo "$algo" --n "$n" --p "$n" --batch "$batch"); then
      echo "FAIL: $algo --batch $batch did not solve (exit $?)" >&2
      echo "$out" >&2
      status=1
      continue
    fi
    elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
    # Everything the model can observe from the summary; timing excluded.
    summary=$(grep -E 'solved|completed S|attempted S|\|F\||parallel time|sigma' \
              <<<"$out")
    if [ "$batch" = 0 ]; then
      interp_summary=$summary
      echo "$algo interp: ${elapsed_ms} ms"
    else
      echo "$algo batch:  ${elapsed_ms} ms"
      if [ "$summary" != "$interp_summary" ]; then
        echo "FAIL: $algo tally diverges between batch and interpreter:" >&2
        diff <(echo "$interp_summary") <(echo "$summary") >&2 || true
        status=1
      fi
    fi
  done
done

# Trace bit-identity across modes: the same run traced through the binary
# sink must produce byte-identical streams from the interpreter and the
# batched backend, and the stream must pass trace_cli's invariant audit.
# Rows: fault-free at N = P and at P = N/64 (there X's lanes pile onto few
# tree nodes, the runs its kernel's step memo serves), then random failures
# with restarts, which gate the reboot path and the interpreter states'
# phase clocks against the kernels, at N = P and at P = N/16 (there V runs
# several iterations, so its phase clock wraps). Every row compares the
# tally too. (Smaller than the tally rows above — the trace gate is about
# identity, not scale.)
trace_cli="$build_dir/examples/trace_cli"
if [ -x "$trace_cli" ]; then
  trace_dir=$(mktemp -d)
  trap 'rm -rf "$trace_dir"' EXIT
  faults=(--adversary random --fail 0.02 --restart 0.5 --seed 3)
  for row in fault-free fault-free-p64 faulty faulty-p256; do
    flags=(--n 4096 --p 4096)
    case "$row" in
      fault-free-p64) flags=(--n 4096 --p 64) ;;
      faulty) flags+=("${faults[@]}") ;;
      faulty-p256) flags=(--n 4096 --p 256 "${faults[@]}") ;;
    esac
    for algo in W V X VX; do
      run="$trace_dir/$algo-$row"
      for batch in 0 1; do
        if ! "$cli" --algo "$algo" --batch "$batch" "${flags[@]}" \
            --trace-out "$run-$batch.bin" >"$run-$batch.txt"; then
          echo "FAIL: $algo $row --batch $batch did not solve" >&2
          status=1
        fi
      done
      if ! cmp -s "$run-0.bin" "$run-1.bin"; then
        echo "FAIL: $algo $row binary trace differs between interpreter and batch" >&2
        "$trace_cli" check "$run-0.bin" "$run-1.bin" >&2 || true
        status=1
      elif ! "$trace_cli" check "$run-0.bin" >/dev/null; then
        echo "FAIL: $algo $row trace violates stream invariants" >&2
        "$trace_cli" check "$run-0.bin" >&2 || true
        status=1
      fi
      tally=()
      for batch in 0 1; do
        tally[batch]=$(grep -E 'solved|completed S|attempted S|\|F\||parallel time|sigma' \
                       "$run-$batch.txt" || true)
      done
      if [ -z "${tally[0]}" ] || [ "${tally[0]}" != "${tally[1]}" ]; then
        echo "FAIL: $algo $row tally diverges between batch and interpreter:" >&2
        diff <(echo "${tally[0]}") <(echo "${tally[1]}") >&2 || true
        status=1
      fi
    done
  done
  [ "$status" = 0 ] && echo "trace smoke OK: binary streams and tallies bit-identical across modes"
else
  echo "note: $trace_cli not built — skipping trace bit-identity check"
fi

if [ "$status" = 0 ]; then
  echo "batch smoke OK: all tallies identical across modes"
fi
exit "$status"
