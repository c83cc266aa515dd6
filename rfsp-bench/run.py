#!/usr/bin/env python3
"""Build the rfsp benchmark (rfsp_bench) from source and run one workload.

    python3 rfsp-bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The CMake tree lives in
$CARGO_TARGET_DIR/rfsp-bench (default .bench_build/rfsp-bench); artifacts a
run writes (trace, schedule, checkpoint, spans.csv) go under its out/
directory. rfsp_bench's stdout is relayed unchanged, so the last line is the
result object. If the build or the run fails, nothing is printed on stdout
and the exit code is non-zero.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "rfsp-bench"


def build(targets):
    """Configure and build `targets`; returns the CMake tree."""
    tree = build_dir()
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (tree / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)
    return tree


def source_identity():
    """(git commit or "none", sha256 over the library and benchmark sources)."""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        tree = build(["rfsp_bench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    commit, digest = source_identity()
    cmd = [str(tree / "rfsp_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(tree / "out"),
           "--commit", commit, "--digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = proc.returncode == 0 and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print(f"error: rfsp_bench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
