#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 rfsp-bench/spread.py [--workloads a,b] [--seeds 10]
                                 [--first-seed 1] [--save FILE]
                                 [--compare FILE]

Runs run.py once per seed and workload (untraced, run_seconds each) and
prints, per metric, the median, the quartile spread (Q3 - Q1) / median as
statistics.quantiles(n=4) gives it, and the bound. A spread at or above a
third of the bound is flagged (setup_s is exempt, as in the acceptance
rule). --save keeps the raw values; --compare FILE flags every metric whose
median is worse than FILE's by more than its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run(workload, seed):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, new, old):
    """Relative change of `new` over `old` in the metric's bad direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    values = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run(workload, seed))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())),
                flush=True)
        values[workload] = {m["name"]: [r[m["name"]] for r in runs]
                            for m in SPEC["end_to_end"]}
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    previous = json.loads(Path(args.compare).read_text()) if args.compare \
        else {}

    flagged = 0
    print(f"\n{'workload':18} {'metric':15} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  note")
    for workload, metrics in values.items():
        for m in SPEC["end_to_end"]:
            v = metrics[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 \
                else (v[0], v[0], v[0])
            spread = (q3 - q1) / med
            notes = []
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                notes.append("UNSTEADY")
            old = previous.get(workload, {}).get(m["name"])
            if old:
                change = worse(m, med, statistics.median(old))
                notes.append(f"vs saved {change:+.1%}")
                if change > m["bound"]:
                    notes.append("REGRESSED")
            flagged += any(n in ("UNSTEADY", "REGRESSED") for n in notes)
            print(f"{workload:18} {m['name']:15} {med:14.6g} {spread:8.2%} "
                  f"{m['bound']:6.2f}  {' '.join(notes)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
