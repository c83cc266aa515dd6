#!/usr/bin/env bash
# Run every experiment bench (E1–E21) with --benchmark_format=json and
# aggregate the results into BENCH_<tag>.json, one point of the perf
# trajectory the ROADMAP tracks PR over PR.
#
# Usage:
#   scripts/run_benches.sh TAG [build-dir] [out-dir] [--force]
#
# TAG is required: it names the aggregate, <out-dir>/BENCH_<TAG>.json.
# Defaults: build-dir = build, out-dir = <build-dir>/bench-results. If the
# aggregate already exists the script refuses to run (an aggregate is a
# point on the perf trajectory — clobbering one silently rewrites
# history); pass --force to overwrite.
#
# Environment:
#   RFSP_BENCH_LARGE=1   also run the minutes-long headline rows
#                        (E5/X-stalked/n:65536). Off by default so the
#                        whole suite stays a coffee-break run.
#   RFSP_BENCH_FILTER=…  extra --benchmark_filter regex applied to every
#                        binary (e.g. 'n:65536' for just the big rows).
set -euo pipefail

cd "$(dirname "$0")/.."

force=0
positional=()
for arg in "$@"; do
  if [ "$arg" = "--force" ]; then
    force=1
  else
    positional+=("$arg")
  fi
done

if [ ${#positional[@]} -lt 1 ] || [ -z "${positional[0]}" ]; then
  echo "usage: scripts/run_benches.sh TAG [build-dir] [out-dir] [--force]" >&2
  exit 2
fi
tag=${positional[0]}
build_dir=${positional[1]:-build}
out_dir=${positional[2]:-"$build_dir/bench-results"}

aggregate_out="$out_dir/BENCH_${tag}.json"
if [ -e "$aggregate_out" ] && [ "$force" != 1 ]; then
  echo "error: $aggregate_out already exists — pick another tag or pass" >&2
  echo "       --force to overwrite the recorded trajectory point" >&2
  exit 1
fi

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

mkdir -p "$out_dir"

# The minutes-long rows are opt-in; everything else always runs.
exclude_large='E5/X-stalked/n:65536'
for bench in "$build_dir"/bench/*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  args=(--benchmark_format=json --benchmark_out="$out_dir/$name.json"
        --benchmark_out_format=json)
  if [ -n "${RFSP_BENCH_FILTER:-}" ]; then
    args+=(--benchmark_filter="${RFSP_BENCH_FILTER}")
  elif [ "${RFSP_BENCH_LARGE:-0}" != 1 ]; then
    args+=(--benchmark_filter="-${exclude_large}")
  fi
  echo "== $name"
  # The binaries print their report tables to stdout; keep them visible but
  # let the JSON go to the per-binary file.
  "$bench" "${args[@]}" >/dev/null
done

python3 - "$out_dir" "$tag" <<'PY'
import json, pathlib, sys

out_dir = pathlib.Path(sys.argv[1])
tag = sys.argv[2]
runs = {}
for path in sorted(out_dir.glob("bench_*.json")):
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError:
        # A filter that matches nothing leaves an empty out-file behind.
        continue
    runs[path.stem] = [
        {
            "name": b["name"],
            "real_time_ms": round(b["real_time"] / 1e6, 3)
            if b.get("time_unit") == "ns"
            else b["real_time"],
            **{
                k: v
                for k, v in b.items()
                if k not in {"name", "real_time", "cpu_time", "time_unit",
                             "run_name", "run_type", "repetitions",
                             "repetition_index", "threads", "family_index",
                             "per_family_instance_index", "iterations"}
            },
        }
        for b in data.get("benchmarks", [])
    ]

aggregate = {
    "schema": "rfsp-bench-v1",
    "tag": tag,
    "note": "Fresh run of every bench binary; see BENCH_PR1.json at the "
            "repo root for the checked-in before/after engine comparison.",
    # The trace transport the E18 sink-overhead rows measured against, so a
    # future wire-format bump shows up in the trajectory metadata (the
    # format spec lives in docs/observability.md).
    "trace_format": "rfsp-trace-binary v1 / jsonl",
    "runs": runs,
}
out = out_dir / f"BENCH_{tag}.json"
with open(out, "w") as f:
    json.dump(aggregate, f, indent=2)
    f.write("\n")
print(f"aggregated {sum(len(v) for v in runs.values())} benchmark rows "
      f"from {len(runs)} binaries -> {out}")
PY
