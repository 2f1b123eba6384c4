"""Experiment driver: argument/config parsing, task dispatch, and emission.

Subcommands: count, expsum-decay, vdc, lemma2, prop2, majorant,
thresholds, verify.  Every experiment but thresholds and verify is a
sweep of independent tasks run by sweeps.sweep on --workers threads;
rows are gathered in task order before anything is written, so the
output is identical for any worker count.  Randomness always flows from
the single master seed through the published per-task derivation.

Exit codes: 0 success, 2 invalid parameters (flags, config file or
function parameters), 3 capacity/budget exceeded (a work cap, memory,
or a quadrature that cannot converge under the grid cap), 4 verify-suite
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import verify as _verify
from .errors import AdmissibilityError, CapacityError, ConvergenceError
from .expsum import per_xi_sweep, vdc_ratio_sweep
from .majorant import DEFAULT_BUDGET, p_threshold, uniformity_sweep
from .rvfunc import ELL_KINDS, InverseFn, PsiFn, RegVaryFn
from .sparseset import SetSpec, build_frac_set, build_set, count_sweep, frac_scan
from .sweeps import SweepResult, write_csv, write_jsonl, xi_grid
from .trigpoly import GRID_CAP_DEFAULT, check_tol, restriction_sweep


@dataclass
class ExperimentConfig:
    experiment: str
    h1: dict = field(default_factory=dict)
    h2: dict = field(default_factory=dict)
    psi_mode: str = "difference"
    kind: str = "frac_plus"
    N_list: list = field(default_factory=lambda: [10**4, 10**5, 10**6])
    levels: str = "10:18"
    p: float = 2.5
    xi_rule: str = "golden:4"
    m_max: int = 16
    trials: int = 16
    p_offset: float = 0.5
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    tol: float = 1e-8
    grid_cap: int | None = None
    workers: int = 1
    fmt: str = "both"
    out_dir: str = "."
    set_out: str | None = None
    coeffs_out: str | None = None
    level: str = "quick"

    @property
    def cap(self) -> int:
        """The quadrature grid cap: grid_cap when given, else the default."""
        return GRID_CAP_DEFAULT if self.grid_cap is None else self.grid_cap

    def echo(self) -> dict:
        d = {}
        for key, val in vars(self).items():
            if key in ("h1", "h2"):
                d[key] = ", ".join(f"{k}={v}" for k, v in sorted(val.items()))
            elif isinstance(val, list):
                d[key] = ",".join(str(v) for v in val)
            else:
                d[key] = val
        return d


def _family(kv: dict, default_c: float = 1.0) -> RegVaryFn:
    return RegVaryFn.from_kv(", ".join(
        f"{k}={v}" for k, v in {"c": default_c, **kv}.items()))


def _levels_list(spec: str, first: int) -> list:
    """The dyadic N = 2^lo .. 2^hi of a lo:hi spec; every N must be at
    least `first`, the smallest N the experiment can use."""
    lo, _, hi = spec.partition(":")
    try:
        levels = [2**j for j in range(int(lo), int(hi) + 1)]
    except ValueError:
        levels = []
    if not levels:
        raise ValueError(f"levels {spec!r} is not of the form lo:hi with "
                         f"integer exponents lo <= hi")
    if levels[0] < first:
        raise ValueError(f"levels {spec!r} start below "
                         f"{(first - 1).bit_length()}, the smallest usable "
                         f"level: N = 2^lo must be at least {first}")
    return levels


# ------------------------------------------------------------ experiments


def _exp_count(cfg: ExperimentConfig):
    h1, h2 = _family(cfg.h1), _family(cfg.h2)

    def build(N):
        built = build_set(SetSpec(cfg.kind, h1, h2, N, psi_mode=cfg.psi_mode))
        if cfg.set_out and N == max(cfg.N_list):
            built.save(cfg.set_out)
        return built

    return count_sweep(build, cfg.N_list, cfg.seed, cfg.workers)


def _frac_sets(cfg: ExperimentConfig, default_c2: float):
    """(h1, h2, build): the families of cfg, h2's exponent defaulting to
    default_c2 (1.1 for prop2, else 1), and build(N), the fractional-part
    set of cfg.kind."""
    h1, h2 = _family(cfg.h1), _family(cfg.h2, default_c=default_c2)
    return h1, h2, lambda N: build_frac_set(
        SetSpec(cfg.kind, h1, h2, N, psi_mode=cfg.psi_mode))


def _exp_per_xi(cfg: ExperimentConfig):
    """expsum-decay and lemma2, the experiments of expsum.per_xi_sweep."""
    _, _, build = _frac_sets(cfg, 1.0)
    xis = xi_grid(cfg.xi_rule, seed=cfg.seed)
    return per_xi_sweep(cfg.experiment, build, cfg.N_list, xis, cfg.seed,
                        cfg.workers)


def _exp_vdc(cfg: ExperimentConfig):
    phi1 = InverseFn(_family(cfg.h1))
    psi = PsiFn(InverseFn(_family(cfg.h2)), mode=cfg.psi_mode)
    # the Lemma 1 bound takes phi1(N) and log N
    levels = _levels_list(cfg.levels, max(2, math.ceil(phi1.y0)))
    rows = vdc_ratio_sweep(phi1, psi, cfg.m_max,
                           xi_grid(cfg.xi_rule, seed=cfg.seed), levels)
    for r in rows:
        r.seed = cfg.seed
    return rows


def _exp_prop2(cfg: ExperimentConfig):
    h1, h2, build = _frac_sets(cfg, 1.1)
    p = p_threshold(h1.c, h2.c) + cfg.p_offset
    if not math.isfinite(p):
        raise ValueError(f"p-offset {cfg.p_offset} gives p = {p}")
    # below the scan's first index the set is empty
    levels = _levels_list(cfg.levels, frac_scan(h1, h2, cfg.psi_mode)[2])
    return restriction_sweep(build, p, levels, trials=cfg.trials,
                             seed=cfg.seed, tol=cfg.tol, cap=cfg.cap,
                             workers=cfg.workers)


def _exp_majorant(cfg: ExperimentConfig):
    h1, h2, build = _frac_sets(cfg, 1.0)
    if h2.c > 1.0 and cfg.p < (floor := p_threshold(h1.c, h2.c)):
        raise AdmissibilityError(
            f"p = {cfg.p} below threshold {floor} for (c1, c2) = "
            f"({h1.c}, {h2.c})")
    rows, estimates = uniformity_sweep(
        build, cfg.p, cfg.N_list, budget=cfg.budget, seed=cfg.seed,
        tol=cfg.tol, cap=cfg.cap, workers=cfg.workers)
    if cfg.coeffs_out:
        best = estimates[int(np.argmax(cfg.N_list))]
        with open(cfg.coeffs_out, "w") as fh:
            fh.write("# n, re(a_n), im(a_n)\n")
            for n, a in zip(best.support, best.argmax_coeffs):
                fh.write(f"{n},{float(a.real)!r},{float(a.imag)!r}\n")
    return rows


def _exp_thresholds(cfg: ExperimentConfig):
    c1_grid = np.linspace(1.0, 1.9, 10)
    c2_grid = np.concatenate([[1.0], np.linspace(1.02, 1.19, 9)])
    rows = []
    for c1 in c1_grid:
        for c2 in c2_grid:
            rows.append(SweepResult(
                experiment="thresholds", quantity="p_threshold",
                value=p_threshold(float(c1), float(c2)),
                params={"c1": round(float(c1), 6), "c2": round(float(c2), 6)},
            ))
    return rows


def _exp_verify(cfg: ExperimentConfig):
    """One row per check, value 1.0 when it passed and 0.0 when not."""
    report = _verify.suite(cfg.level)
    for line in report.lines():
        print(line)
    return [SweepResult(
        experiment="verify", quantity=r.name,
        value=1.0 if r.passed else 0.0,
        params={"level": r.level, "measured": r.measured.replace(",", ";")},
    ) for r in report.results]


# ------------------------------------------------------------ the table


# Every setting, by its config-file key: the add_argument keywords that
# its flag and its file value both go through, and under "flag" the flag
# where that is not --key with - for _ (None: the key is file-only).
# `name` labels the file's experiment and must equal the subcommand.
_SETTINGS = {
    "name": {"type": str, "flag": None}, "out": {"type": str},
    "seed": {"type": int}, "workers": {"type": int}, "tol": {"type": float},
    "grid_cap": {"type": int},
    "fmt": {"type": str, "choices": ("csv", "jsonl", "both"),
            "flag": "--format"},
    "psi_mode": {"type": str, "choices": PsiFn.MODES},
    "kind": {"type": str,
             "choices": ("frac_plus", "frac_minus", "floor_image")},
    "xi_rule": {"type": str}, "m_max": {"type": int}, "trials": {"type": int},
    "levels": {"type": str, "help": "dyadic exponent range lo:hi"},
    "p_offset": {"type": float}, "p": {"type": float}, "budget": {"type": int},
    "set_out": {"type": str}, "coeffs_out": {"type": str},
    "level": {"type": str, "choices": ("quick", "full")},
    "n_list": {"type": str, "flag": "--N-list"},
}
_FIELDS = {"out": "out_dir", "n_list": "N_list"}
# the settings every parser accepts, before and after the subcommand name
_GLOBAL = ("out", "seed", "workers", "fmt", "tol", "grid_cap")
# the keys of [h1]/[h2], as RegVaryFn.from_kv reads them: case matters
# there (B and C are parameters of ell, c is the exponent); the flag of
# key k in [hi] is --ki
_H_SETTINGS = {
    "family": {"type": str, "choices": ELL_KINDS, "flag": "--ell"},
    "c": {"type": float}, "B": {"type": float}, "C": {"type": float},
    "m": {"type": int}, "x0": {"type": float, "flag": None},
}
_H = ("h1", "h2", "psi_mode")

# subcommand -> (runner returning the rows, its settings besides _GLOBAL;
# h1/h2 stand for the flags of that section)
EXPERIMENTS = {
    "count": (_exp_count, (*_H, "n_list", "kind", "set_out")),
    "expsum-decay": (_exp_per_xi, (*_H, "n_list", "kind", "xi_rule")),
    "vdc": (_exp_vdc, (*_H, "xi_rule", "m_max", "levels")),
    "lemma2": (_exp_per_xi, (*_H, "n_list", "kind", "xi_rule")),
    "prop2": (_exp_prop2, (*_H, "levels", "trials", "p_offset")),
    "majorant": (_exp_majorant, (*_H, "n_list", "p", "budget", "coeffs_out")),
    "thresholds": (_exp_thresholds, _H),
    "verify": (_exp_verify, ("level",)),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts."""
    stem = Path(cfg.out_dir) / cfg.experiment
    try:
        stem.parent.mkdir(parents=True, exist_ok=True)
        rows = EXPERIMENTS[cfg.experiment][0](cfg)
        echo = cfg.echo()
        if cfg.fmt in ("csv", "both"):
            write_csv(stem.with_suffix(".csv"), rows, config_echo=echo)
        if cfg.fmt in ("jsonl", "both"):
            write_jsonl(stem.with_suffix(".jsonl"), rows, config_echo=echo)
    except (AdmissibilityError, ValueError, OSError) as exc:
        # OSError: an unwritable --out, --set-out or --coeffs-out
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ConvergenceError, MemoryError) as exc:
        print(f"capacity/budget exceeded: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 3
    failed = any(r.experiment == "verify" and r.value == 0.0 for r in rows)
    return 4 if failed else 0


# ---------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    """Raises a flag error as ValueError, so main reports it in one line
    like every other invalid parameter; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def _add_flags(parser, settings, default=None, section=""):
    """The flag of each setting that has one; key k of section [hi] gets
    the flag --ki and the dest "hi.k"."""
    for key, kw in settings.items():
        kw = dict(kw)
        flag = kw.pop("flag", "--" + key.replace("_", "-"))
        if flag:
            parser.add_argument(flag + section[1:], default=default,
                                dest=f"{section}.{key}" if section else key,
                                **kw)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subparser from clobbering a flag that was already
    # given before the subcommand name
    common.add_argument("--config", type=str, default=argparse.SUPPRESS)
    _add_flags(common, {k: _SETTINGS[k] for k in _GLOBAL}, argparse.SUPPRESS)
    # no abbreviations: a removed flag such as --N must not parse as a
    # prefix of another (--N-list)
    ap = _Parser(prog="majorantlab", parents=[common], allow_abbrev=False,
                 description="Numerical experiments on sparse-set "
                             "exponential sums and majorant constants.")
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name, (_, keys) in EXPERIMENTS.items():
        sp = sub.add_parser(name, parents=[common], allow_abbrev=False)
        for key in keys:
            if key in ("h1", "h2"):
                _add_flags(sp, _H_SETTINGS, section=key)
            else:
                _add_flags(sp, {key: _SETTINGS[key]})
    return ap


def _file_value(section: str, key: str, kw: dict, text: str):
    """A config-file value, through the type and choices of its flag."""
    try:
        value = kw["type"](text)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {text!r} is not a valid "
                         f"{kw['type'].__name__}") from None
    if value not in kw.get("choices", (value,)):
        raise ValueError(f"[{section}] {key} = {text!r} is not one of "
                         f"{', '.join(kw['choices'])}")
    return value


def _config_from_file(path: str) -> dict:
    """The file's settings by key, with [h1] and [h2] under "h1"/"h2"."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as fh:
        cp.read_file(fh)
    out: dict = {"h1": {}, "h2": {}}
    for section in cp.sections():
        items = dict(cp.items(section))
        h_section = section in ("h1", "h2")
        if not h_section:
            lowered = {k.lower(): v for k, v in items.items()}
            if len(lowered) < len(items):
                raise ValueError(f"a key is given twice in [{section}]")
            items = lowered
        known = _H_SETTINGS if h_section else _SETTINGS
        unknown = sorted(set(items) - set(known))
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(unknown)} in "
                             f"[{section}]; known: {', '.join(known)}")
        (out[section] if h_section else out).update(
            {k: _file_value(section, k, known[k], v) for k, v in items.items()})
    return out


def _parse_n_list(text: str) -> list:
    try:
        values = [int(float(v)) for v in text.split(",") if v.strip()]
    except OverflowError:
        raise ValueError(f"N-list {text!r} holds an infinite value") from None
    if not values:
        raise ValueError(f"N-list {text!r} holds no value")
    return values


def resolve_config(argv=None) -> ExperimentConfig:
    """Defaults, overridden by the config file, overridden by the flags."""
    flags = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
             if v is not None}
    experiment = flags.pop("experiment")
    given = (_config_from_file(flags.pop("config")) if "config" in flags
             else {"h1": {}, "h2": {}})
    name = given.pop("name", experiment)
    if name != experiment:
        raise ValueError(f"the config file names experiment {name!r}, "
                         f"the subcommand is {experiment!r}")
    cfg = ExperimentConfig(experiment=experiment, h1=given.pop("h1"),
                           h2=given.pop("h2"))
    for dest, value in flags.items():
        section, _, key = dest.rpartition(".")
        (getattr(cfg, section) if section else given)[key] = value
    if "n_list" in given:
        given["n_list"] = _parse_n_list(given["n_list"])
    for key, value in given.items():
        setattr(cfg, _FIELDS.get(key, key), value)
    if cfg.grid_cap is not None and cfg.grid_cap < 1:
        raise ValueError(f"--grid-cap (grid_cap) must be >= 1, got {cfg.grid_cap}")
    if cfg.workers < 1:
        raise ValueError(f"--workers (workers) must be >= 1, got {cfg.workers}")
    check_tol(cfg.tol)
    return cfg


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError, configparser.Error) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
