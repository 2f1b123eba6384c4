import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import majorantlab
from majorantlab.sweeps import (
    SweepResult,
    derive_seed,
    fit_loglog_slope,
    golden_xis,
    splitmix64,
    write_csv,
    write_jsonl,
    xi_grid,
)


def test_splitmix_is_deterministic_and_spread():
    a = splitmix64(12345)
    assert a == splitmix64(12345)
    outs = {splitmix64(k) for k in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2**64 for v in outs)


def test_derive_seed_distinct_per_task():
    master = 987654321
    seeds = [derive_seed(master, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert seeds == [derive_seed(master, i) for i in range(64)]


def test_golden_xis_values():
    g = (math.sqrt(5) - 1) / 2
    xs = golden_xis(5)
    assert xs[0] == pytest.approx(g)
    assert xs[1] == pytest.approx((2 * g) % 1.0)
    assert np.all((xs >= 0) & (xs < 1))


def test_xi_grid_rules():
    grid = xi_grid("golden:3")
    assert grid[0] == 0.0 and grid[1] == 0.5
    assert len(grid) == 5
    rnd = xi_grid("random:4", seed=1)
    assert len(rnd) == 6
    assert np.array_equal(rnd, xi_grid("random:4", seed=1))
    explicit = xi_grid("0.25,0.75")
    assert explicit.tolist() == [0.25, 0.75]


def test_fit_slope_recovers_power():
    N = np.array([10.0, 100.0, 1000.0])
    y = 3.0 * N ** (-0.7)
    assert fit_loglog_slope(N, y) == pytest.approx(-0.7, abs=1e-12)


def test_fit_slope_single_point_nan():
    assert math.isnan(fit_loglog_slope([10.0], [1.0]))
    # zeros are dropped, leaving one usable point
    assert math.isnan(fit_loglog_slope([10.0, 100.0], [0.0, 1.0]))
    # two points at one x leave no slope to fit
    assert math.isnan(fit_loglog_slope([1000, 1000], [0.5, 0.5]))


def test_fit_slope_imports_nothing_more():
    # numpy.ma, which np.unique imports on first use, costs tens of
    # milliseconds; a fresh interpreter that fits one slope must not load it
    env = dict(os.environ)
    src = str(Path(majorantlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, majorantlab\n"
            "from majorantlab.sweeps import fit_loglog_slope\n"
            "print(fit_loglog_slope([10.0, 100.0, 100.0], [1.0, 2.0, 3.0]))\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    slope, loaded = done.stdout.split()
    assert math.isfinite(float(slope))
    assert loaded == "False"


def rows():
    return [
        SweepResult(experiment="demo", quantity="q", value=1.5,
                    reference=2.0, ratio=0.75, exponent=math.nan,
                    wall_ms=3.25, seed=7, borderline_count=0,
                    params={"N": 10, "label": "a, with comma"}),
        SweepResult(experiment="demo", quantity="q", value=float(np.float64(2.5)),
                    params={"N": 20, "label": "plain"}),
    ]


def test_csv_round_trip_with_quoting(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, rows(), config_echo={"seed": 7, "note": "x"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed = 7")
    body = [l for l in lines if not l.startswith("#")]
    parsed = list(csv.reader(body))
    header = parsed[0]
    assert len(parsed[1]) == len(header)
    rec = dict(zip(header, parsed[1]))
    assert rec["value"] == "1.5"
    assert rec["label"] == "a, with comma"
    assert rec["exponent"] == "nan"
    assert dict(zip(header, parsed[2]))["reference"] == ""


def test_jsonl_mirror(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, rows(), config_echo={"seed": 7})
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["config"]["seed"] == 7
    rec = json.loads(lines[1])
    assert rec["value"] == 1.5
    assert rec["exponent"] is None  # NaN maps to null
    assert rec["N"] == 10
