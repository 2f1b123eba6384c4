"""Benchmark workloads: the CLI steps each one runs and the checks on their rows.

A workload is a fixed list of `majorantlab` subcommands.  One operation is
one CLI step; it fails when it raises, exits nonzero, returns the wrong
number of rows, or any of its rows fails a check below.  The sizes are
scaled down from the acceptance criteria they follow (1, 3, 4, 8, 9) so
that one pass takes seconds and a run can repeat it; README.md gives the
reasons for each choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# floats in seed-independent rows may move by this much relative to the
# recorded reference (summation order, warm-started solves); integers
# and strings must match exactly
REF_RTOL = 1e-6

# acceptance thresholds the invariants reuse
COUNT_RATIO = (0.95, 1.05)          # criterion 1
BORDERLINE_SHARE = 1e-6             # borderline / members, criterion 1
VDC_RATIO_MAX = 50.0                # criterion 4
MAJORANT_FLOOR = 1.0 - 1e-9         # criterion 8: all-ones is a candidate


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple            # argv tuples, without --seed / --out / --workers
    workers: tuple          # --workers per step (capped at nproc at run time)
    rows: tuple             # expected row count per step
    expect_zero: tuple      # per-layer counters that must stay 0 when traced
    expect_positive: tuple  # per-layer counters that must fire when traced


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sets-sums",
            steps=(
                ("count", "--kind", "frac_plus", "--N-list", "5e4,2e5"),
                ("count", "--kind", "floor_image", "--N-list", "1e5,1e6"),
                ("expsum-decay", "--N-list", "3e4,1e5", "--xi-rule", "random:1"),
                ("vdc", "--m-max", "16", "--levels", "10:15",
                 "--xi-rule", "random:2"),
            ),
            workers=(1, 1, 1, 1),
            # vdc: 2 values of l x 16 m x 4 xi x 6 levels
            rows=(2, 2, 6, 768),
            expect_zero=("majorant.fft_calls", "trigpoly.fft_calls",
                         "majorant.estimates", "trigpoly.lp_norm_calls"),
            expect_positive=("rvfunc.pair_points", "rvfunc.psi_points",
                             "rvfunc.solve_calls", "sparseset.builds",
                             "compensated.elements", "expsum.terms",
                             "sweeps.emit_bytes"),
        ),
        Workload(
            name="majorant",
            steps=(
                # phase ascent stops on its own after 2100-2900 iterations
                # per N, depending on N and the seed; a budget below that
                # makes every seed do the same number of iterations
                ("majorant", "--p", "2.5", "--N-list", "2048,4096,8192",
                 "--budget", "1600"),
            ),
            workers=(1,),
            rows=(3,),
            expect_zero=("expsum.terms",),
            expect_positive=("majorant.estimates", "majorant.fft_calls",
                             "trigpoly.lp_norm_calls", "trigpoly.fft_calls",
                             "sparseset.builds", "sweeps.emit_bytes"),
        ),
        Workload(
            name="restriction",
            steps=(
                # offset 0.7 gives p = 4.2: the default 0.5 lands on
                # 4.000000000000002, non-even only through roundoff
                ("prop2", "--c2", "1.1", "--levels", "10:16", "--trials", "16",
                 "--p-offset", "0.7"),
            ),
            workers=(2,),
            rows=(14,),
            expect_zero=("majorant.estimates", "majorant.fft_calls",
                         "expsum.terms"),
            expect_positive=("trigpoly.lp_norm_calls", "trigpoly.fft_calls",
                             "rvfunc.psi_points", "rvfunc.pair_points",
                             "sparseset.builds", "sweeps.emit_bytes"),
        ),
    )
}


def step_argv(step, seed: int, workers: int, out_dir: str) -> list:
    return [*step, "--seed", str(seed), "--workers", str(workers),
            "--out", out_dir]


def read_rows(out_dir: str, experiment: str) -> list:
    """Rows of the JSON-lines file a CLI step wrote, config record dropped."""
    path = Path(out_dir) / f"{experiment}.jsonl"
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if "config" not in r]


def comparable(rows) -> str:
    """Canonical text of rows with the timing column removed, for the
    same-seed identity check across passes."""
    return json.dumps([{k: v for k, v in r.items() if k != "wall_ms"}
                       for r in rows], sort_keys=True)


# ------------------------------------------------------------ references


def _seed_free(row) -> bool:
    """Rows whose content does not depend on the workload seed."""
    if row["experiment"] == "count":
        return True
    return row["experiment"] == "expsum-decay" and row["xi"] in (0.0, 0.5)


def reference_rows(rows) -> list:
    return [{k: v for k, v in r.items() if k not in ("wall_ms", "seed")}
            for r in rows if _seed_free(r)]


def _same(ref, got) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    if isinstance(ref, int) and isinstance(got, int):
        return ref == got
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return abs(got - ref) <= REF_RTOL * max(abs(ref), 1e-300)
    return ref == got


def reference_problems(workload: str, step_index: int, rows, refs) -> list:
    """Differences between a step's seed-free rows and the recorded ones."""
    want = refs.get(workload, {}).get(str(step_index), [])
    got = reference_rows(rows)
    if len(got) != len(want):
        return [f"{len(got)} seed-free rows, reference has {len(want)}"]
    out = []
    for ref, row in zip(want, got):
        for key in sorted(set(ref) | set(row)):
            if not _same(ref.get(key), row.get(key)):
                out.append(f"{row['experiment']} N={row.get('N')} "
                           f"{key}: {row.get(key)!r} != reference {ref.get(key)!r}")
    return out


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ------------------------------------------------------------ invariants


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _even_p(p: float) -> bool:
    return abs(p - round(p)) < 1e-6 and round(p) % 2 == 0


def invariant_problems(row) -> list:
    """Checks that hold for any seed (acceptance criteria 1, 4, 8, 9)."""
    exp = row["experiment"]
    out = []
    if exp == "count":
        lo, hi = COUNT_RATIO
        if not (_finite(row["ratio"]) and lo <= row["ratio"] <= hi):
            out.append(f"count ratio {row['ratio']} outside [{lo}, {hi}]")
        if row["borderline_count"] > BORDERLINE_SHARE * row["value"]:
            out.append(f"count borderline {row['borderline_count']} above "
                       f"{BORDERLINE_SHARE} of {row['value']} members")
    elif exp == "expsum-decay":
        if not (_finite(row["value"]) and row["value"] >= 0):
            out.append(f"expsum-decay value {row['value']} not finite")
    elif exp == "vdc":
        if not (_finite(row["ratio"]) and row["ratio"] <= VDC_RATIO_MAX):
            out.append(f"vdc ratio {row['ratio']} not finite or above "
                       f"{VDC_RATIO_MAX}")
    elif exp == "majorant":
        v, env = row["value"], row["reference"]
        if not (_finite(v) and _finite(env) and MAJORANT_FLOOR <= v <= env):
            out.append(f"majorant value {v} outside [{MAJORANT_FLOOR}, {env}]")
    elif exp == "prop2":
        if not (_finite(row["value"]) and row["value"] > 0):
            out.append(f"prop2 value {row['value']} not finite and positive")
        if _even_p(row["p"]):
            out.append(f"prop2 p = {row['p']} is even: lp_norm takes the "
                       "single-grid exit this workload must avoid")
    return out


def step_problems(workload: Workload, step_index: int, rows, refs) -> list:
    problems = []
    if len(rows) != workload.rows[step_index]:
        problems.append(f"{len(rows)} rows, expected "
                        f"{workload.rows[step_index]}")
    for row in rows:
        problems.extend(invariant_problems(row))
    problems.extend(reference_problems(workload.name, step_index, rows, refs))
    return problems
