"""Alternating A/B runs of the benchmark on two checkouts.

    python tools/ab_bench.py BASE CHANGE --workload NAME --pairs N
                             [--seconds S] [--seed N]

Runs `bench/run.py --workload NAME --seed N --seconds S --trace 0` from
the root of checkout BASE and of checkout CHANGE, N times each, in pairs
that alternate which side runs first (BASE first in pair 0).  For every
end-to-end metric of BASE's BENCHMARK.json it prints the value of each
pair, each side's median and quartiles, the distance between the
quartiles of BASE, and the pairs that CHANGE wins, ties counting for
neither side.  A run that is not `correct` or has a failed step stops
the script with exit code 1.  Only the standard library is used, and
nothing in either checkout is written but what bench/run.py writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one untraced bench/run.py run in `root`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: bench/run.py exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{root}: run not correct: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value gives itself
    three times."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metrics, base_runs, change_runs) -> list[str]:
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in base_runs]
        b = [r[name] for r in change_runs]
        lines.append(f"{name} ({m['unit']}, {m['better']} is better, "
                     f"bound {m['bound']})")
        for i, (x, y) in enumerate(zip(a, b)):
            lines.append(f"  pair {i}: base {x:.6g}  change {y:.6g}")
        qa, qb = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        lines.append(f"  base   median {qa[1]:.6g}  quartiles {qa[0]:.6g} .. "
                     f"{qa[2]:.6g}  (distance {qa[2] - qa[0]:.4g})")
        lines.append(f"  change median {qb[1]:.6g}  quartiles "
                     f"{qb[0]:.6g} .. {qb[2]:.6g}")
        lines.append(f"  median change {change:+.2%}; change wins {wins} of "
                     f"{len(a)} pairs, loses {losses}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    benchmark = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            root = args.base if side == "base" else args.change
            runs[side].append(run_bench(root.resolve(), args.workload,
                                        args.seed, args.seconds))
        print(f"# pair {i} done ({order[0]} first)", flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds:g}")
    print("\n".join(report(metrics, runs["base"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
