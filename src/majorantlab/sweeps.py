"""The sweep driver, sweep rows, decay-exponent fits, frequency grids,
seeds, and emission.

Every sweep in the package runs through `sweep`, which times its tasks
and fits their exponents.  Every experiment reports its measurements as
SweepResult rows sharing one CSV / JSON-lines schema, so outputs from
different subcommands can be concatenated and post-processed uniformly.
Rows are self-describing: the parameter columns carry everything needed
to re-run the row.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


@dataclass
class SweepResult:
    """One measured row of an experiment sweep."""

    experiment: str
    quantity: str
    value: float
    params: dict = field(default_factory=dict)
    reference: float | None = None
    ratio: float | None = None
    exponent: float | None = None
    wall_ms: float = 0.0
    seed: int | None = None
    borderline_count: int | None = None

    FIXED_FIELDS = ("experiment", "quantity", "value", "reference", "ratio",
                    "exponent", "wall_ms", "seed", "borderline_count")

    def as_flat_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.FIXED_FIELDS}
        d.update(self.params)
        return d


def splitmix64(state: int) -> int:
    """One output of the splitmix64 mixing function (public domain design)."""
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, index: int) -> int:
    """Per-task seed: mix the master seed with the task index.

    Published scheme so runs can be reproduced row by row: the task at
    position k uses splitmix64(master + (k+1) * golden_gamma).
    """
    return splitmix64((master + (index + 1) * _GOLDEN_GAMMA) & _MASK64)


def golden_xis(k: int) -> np.ndarray:
    """First k fractional parts of n*(sqrt(5)-1)/2, a low-discrepancy grid."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    return np.modf(np.arange(1, k + 1) * g)[0]


def xi_grid(rule: str, seed: int = 0) -> np.ndarray:
    """Frequency grids: 'golden:k' (with 0 and 1/2 pinned), 'random:k',
    or an explicit comma-separated list."""
    head, _, count = rule.partition(":")
    if head in ("golden", "random"):
        if not count.isdecimal():
            raise ValueError(f"xi-rule {rule!r} is not of the form {head}:k "
                             f"with an integer k >= 0")
        xis = (golden_xis(int(count)) if head == "golden"
               else np.random.default_rng(seed).random(int(count)))
        return np.concatenate([[0.0, 0.5], xis])
    try:
        xis = np.array([float(v) for v in rule.split(",") if v.strip() != ""])
    except ValueError:
        raise ValueError(f"xi-rule {rule!r} is neither golden:k, random:k "
                         f"nor a comma-separated list of numbers") from None
    if not len(xis):
        raise ValueError(f"xi-rule {rule!r} holds no frequency")
    return xis


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x.

    Nonpositive or non-finite values are dropped; with fewer than two
    distinct x left the slope is not defined and NaN is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(y) & (y > 0) & np.isfinite(x) & (x > 0)
    x, y = x[keep], y[keep]
    if x.size == 0 or np.all(x == x[0]):
        return math.nan
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def sweep(axis, task, points, key=lambda r: None, workers: int = 1):
    """The rows of task(x) for every x in axis, in axis order for any
    worker count; every row's wall_ms is the time of the task that
    returned it.  Rows with equal key(row) share one exponent: the
    log-log slope through points(rows of the group) = (xs, ys).

    With workers > 1 a thread pool starts the tasks largest x first
    (equal x in axis order), so the longest task is not left to run
    alone at the end."""
    def timed(x):
        t0 = time.perf_counter()
        rows = task(x)
        ms = (time.perf_counter() - t0) * 1e3
        for r in rows:
            r.wall_ms = ms
        return rows

    if workers <= 1:
        groups = [timed(x) for x in axis]
    else:
        order = sorted(range(len(axis)), key=lambda i: axis[i], reverse=True)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(timed, axis[i]) for i in order}
            groups = [futures[i].result() for i in range(len(axis))]
    rows = [r for g in groups for r in g]
    for k in dict.fromkeys(map(key, rows)):
        group = [r for r in rows if key(r) == k]
        slope = fit_loglog_slope(*points(group))
        for r in group:
            r.exponent = slope
    return rows


def per_row(y):
    """points() for sweep: every row's N paired with y(row), repeated N
    included."""
    return lambda rows: ([r.params["N"] for r in rows], [y(r) for r in rows])


# ------------------------------------------------------------- emission


def _plain(v):
    """v, or the Python scalar a numpy scalar v holds."""
    return v.item() if isinstance(v, np.generic) else v


def _fmt(v) -> str:
    v = _plain(v)
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def result_columns(results) -> list[str]:
    keys: set[str] = set()
    for r in results:
        keys.update(r.params.keys())
    return list(SweepResult.FIXED_FIELDS) + sorted(keys)


def write_csv(path, results, config_echo: dict | None = None):
    """CSV with '#'-prefixed metadata lines echoing the resolved config.

    Comma-separated with a header row and '.' decimals; fields that carry
    embedded commas (e.g. function descriptions) are quoted.
    """
    import csv as _csv

    cols = result_columns(results)
    with open(path, "w", newline="") as fh:
        for k, v in (config_echo or {}).items():
            fh.write(f"# {k} = {v}\n")
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in results:
            d = r.as_flat_dict()
            writer.writerow([_fmt(d.get(c)) for c in cols])


def _json_safe(v):
    v = _plain(v)
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def write_jsonl(path, results, config_echo: dict | None = None):
    """JSON-lines mirror of the CSV; first record carries the config."""
    with open(path, "w") as fh:
        if config_echo is not None:
            fh.write(json.dumps({"config": config_echo}, sort_keys=True) + "\n")
        for r in results:
            d = {k: _json_safe(v) for k, v in r.as_flat_dict().items()}
            fh.write(json.dumps(d, sort_keys=True) + "\n")
