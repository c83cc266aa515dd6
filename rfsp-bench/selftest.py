#!/usr/bin/env python3
"""Prove the benchmark (rfsp_bench) runs the same code paths as the CLIs.

    python3 rfsp-bench/selftest.py [--seed N]

Runs one faulty-artifacts job, then checks its artifacts with the repo's own
command-line tools:
  1. `trace_cli check` accepts rfsp_bench's binary trace;
  2. `writeall_cli` with the same flags and seed writes an event-for-event
     identical trace (`trace_cli check BENCH CLI`);
  3. `writeall_cli --resume` on rfsp_bench's last checkpoint finishes with
     rfsp_bench's tally;
  4. `writeall_cli --replay` of rfsp_bench's recorded schedule gives the
     same tally.
Exits 0 when every check passes.
"""
import argparse
import re
import subprocess
import sys

from run import build

FLAGS = ["--algo", "VX", "--n", "32768", "--p", "256", "--batch", "1",
         "--adversary", "random", "--fail", "0.02", "--restart", "0.5"]


def cli_tally(output):
    """(S, S', failures, restarts, slots) from writeall_cli's report."""
    def grab(pattern):
        return int(re.search(pattern, output, re.M).group(1))
    return (grab(r"^completed S\s+(\d+)"), grab(r"^attempted S'\s+(\d+)"),
            grab(r"\((\d+) failures"), grab(r"(\d+) restarts\)"),
            grab(r"^parallel time\s+(\d+)"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed

    tree = build(["rfsp_bench", "writeall_cli", "trace_cli"])
    out = tree / "out" / "selftest"
    art = out / "faulty-artifacts"
    bench = subprocess.run(
        [str(tree / "rfsp_bench"), "--workload", "faulty-artifacts",
         "--seed", str(seed), "--seconds", "0", "--trace", "0",
         "--out", str(out)], stdout=subprocess.PIPE, text=True, check=True)
    m = re.search(r"^tally 0: S=(\d+) S'=(\d+) failures=(\d+) restarts=(\d+) "
                  r"slots=(\d+)$", bench.stdout, re.M)
    expected = tuple(int(g) for g in m.groups())
    print(f"rfsp_bench tally (S, S', failures, restarts, slots): {expected}")

    def cli(name, *args):
        return subprocess.run([str(tree / name), *args],
                              stdout=subprocess.PIPE, text=True)

    results = []

    def report(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    report("trace_cli check accepts rfsp_bench's trace",
           cli("trace_cli", "check", str(art / "trace.bin")).returncode == 0)
    straight = cli("writeall_cli", *FLAGS, "--seed", str(seed),
                   "--trace-out", str(out / "cli.bin"))
    report("writeall_cli reproduces rfsp_bench's trace event for event",
           straight.returncode == 0 and cli(
               "trace_cli", "check", str(art / "trace.bin"),
               str(out / "cli.bin")).returncode == 0)
    resumed = cli("writeall_cli", *FLAGS, "--seed", str(seed),
                  "--resume", str(art / "checkpoint.json"))
    report("writeall_cli --resume on rfsp_bench's checkpoint gives its tally",
           resumed.returncode == 0 and cli_tally(resumed.stdout) == expected)
    replayed = cli("writeall_cli", "--replay", str(art / "schedule.jsonl"),
                   "--batch", "1")
    report("writeall_cli --replay of rfsp_bench's schedule gives its tally",
           replayed.returncode == 0 and cli_tally(replayed.stdout) == expected)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
