#!/usr/bin/env python3
"""Interleaved A/B runs of rfsp-bench: this checkout against a base revision.

    python3 scripts/ab.py --base REV --workload W[,W...] --pairs N
                          [--out FILE]

REV is exported with `git archive` into DIR/ab/<sha>/src and built there by
its own rfsp-bench/run.py (CMake tree DIR/ab/<sha>/rfsp-bench); this checkout
builds in DIR/rfsp-bench. DIR defaults to $CARGO_TARGET_DIR, else
.bench_build. Both sides are built and run once, untimed, before the pairs.
Pair i then runs both sides untraced for BENCHMARK.json's run_seconds with
seed 1 + i % 2; the base goes first when (i // 2) % 2 == 0, else the change.
Order and seed thus vary independently: every seed runs in both orders, and
10 pairs give each seed/order cell at least 2 runs, so drift in the host's
load hits both sides alike.

Per end-to-end metric of BENCHMARK.json it prints the base and change
medians, the base's interquartile range (IQR), the relative change, the
pairs the change won, lost and tied, and two verdicts:
  bound  WORSE when the change's median is worse than the base's by more
         than the metric's bound; unresolved when the base's IQR is wider
         than the bound and not every change run beats every base run;
         else ok;
  gain   yes when the change won at least 9 of every 10 pairs and its median
         is better by more than the base's IQR, else no.
A metric whose values are equal in every pair prints "same" as its gain.
The two sides build in different directories, and that alone moves
peak_rss_mb: the parent run against itself read 2-3% higher on the
checkout's side in every pair.

--out FILE writes (or updates, one key per workload) a JSON record: host
fingerprint, both commits, each side's quartiles, and every run's metrics.
The exit status is 1 when a run fails or reports a failed check, else 0.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Extract the tree of `rev` into `dest` (once per commit)."""
    if (dest / "rfsp-bench" / "run.py").exists():
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


class Side:
    """One checkout and the CMake tree its run.py builds into."""

    def __init__(self, name, src, target):
        self.name, self.src = name, src
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        # An exported tree has no .git; keep git from finding an enclosing
        # repository and reporting its commit as the base's.
        self.env["GIT_CEILING_DIRECTORIES"] = str(src.parent)

    def run(self, workload, seed, seconds):
        cmd = [sys.executable, str(self.src / "rfsp-bench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=self.src, env=self.env, text=True,
                              capture_output=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{self.name}: run.py {workload} seed {seed} "
                             f"exited {proc.returncode}")
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[0]).get("fingerprint", {})
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{self.name}: {workload} seed {seed}: "
                             f"{result['failed']}/{result['attempted']} "
                             "checks failed")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        return metrics, fingerprint


def better(metric, a, b):
    """True when value `a` is better than `b` for `metric`."""
    return a < b if metric["better"] == "lower" else a > b


def summarize(runs, pairs):
    rows = {}
    for metric in METRICS:
        name = metric["name"]
        base = [r["base"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        wins = sum(better(metric, c, b) for b, c in zip(base, change))
        losses = sum(better(metric, b, c) for b, c in zip(base, change))
        bq1, base_med, bq3 = statistics.quantiles(base, n=4)
        cq1, change_med, cq3 = statistics.quantiles(change, n=4)
        iqr = bq3 - bq1
        rel = (change_med - base_med) / base_med if base_med else 0.0
        worse = rel if metric["better"] == "lower" else -rel
        if worse > metric["bound"]:
            verdict = "WORSE"
        elif (base_med and iqr / abs(base_med) > metric["bound"] and
              not all(better(metric, c, b) for c in change for b in base)):
            verdict = "unresolved"  # the base's own spread exceeds the bound
        else:
            verdict = "ok"
        if base == change:
            gain = "same"
        else:
            gain = ("yes" if 10 * wins >= 9 * pairs and
                    abs(change_med - base_med) > iqr and
                    better(metric, change_med, base_med) else "no")
        rows[name] = {
            "base_median": base_med, "base_q1": bq1, "base_q3": bq3,
            "change_median": change_med, "change_q1": cq1, "change_q3": cq3,
            "base_iqr": iqr, "change_rel": rel, "wins": wins,
            "losses": losses, "ties": pairs - wins - losses,
            "bound": metric["bound"], "bound_verdict": verdict, "gain": gain,
        }
    return rows


def print_table(workload, rows, pairs):
    print(f"\n{workload}: {pairs} pairs")
    print(f"{'metric':<15}{'base':>13}{'change':>13}{'base IQR':>11}"
          f"{'change':>9}{'W/L/T':>10}{'bound':>11}{'gain':>6}")
    for name, r in rows.items():
        wlt = f"{r['wins']}/{r['losses']}/{r['ties']}"
        print(f"{name:<15}{r['base_median']:>13.6g}{r['change_median']:>13.6g}"
              f"{r['base_iqr']:>11.3g}{100 * r['change_rel']:>+8.1f}%"
              f"{wlt:>10}{r['bound_verdict']:>11}{r['gain']:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True,
                        help="workload name, or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    known = {w["name"] for w in SPEC["workloads"]}
    workloads = args.workload.split(",")
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}")

    seconds = SPEC["run_seconds"]
    tree = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    tree = tree.resolve()
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_dir = tree / "ab" / base_commit[:12]
    export(base_commit, base_dir / "src")
    change_commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--", "src", "rfsp-bench"):
        change_commit += "+dirty"
    sides = {
        "base": Side("base", base_dir / "src", base_dir),
        "change": Side("change", ROOT, tree),
    }

    record = {"schema": "rfsp-ab-v1", "workloads": {}}
    if args.out and args.out.exists():
        record = json.loads(args.out.read_text())
    for workload in workloads:
        fingerprint = {}
        for side in sides.values():  # build, warm the page cache; untimed
            _, fingerprint = side.run(workload, 1, min(seconds, 1.0))
        runs = []
        for i in range(args.pairs):
            seed = 1 + i % 2
            order = (["base", "change"] if (i // 2) % 2 == 0
                     else ["change", "base"])
            run = {"pair": i, "seed": seed, "first": order[0]}
            for name in order:
                run[name], _ = sides[name].run(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} pair {i} seed {seed}: run_s base "
                  f"{run['base']['run_s']:.6g} change "
                  f"{run['change']['run_s']:.6g}", file=sys.stderr,
                  flush=True)
        rows = summarize(runs, args.pairs)
        print_table(workload, rows, args.pairs)
        host = {k: v for k, v in fingerprint.items()
                if k not in ("commit", "source_digest")}
        record["host"] = host
        record["workloads"][workload] = {
            "base": base_commit, "change": change_commit,
            "seconds": seconds, "pairs": args.pairs, "host": host,
            "summary": rows, "runs": runs,
        }
        if args.out:
            args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
