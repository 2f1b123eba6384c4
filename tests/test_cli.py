import csv
import json
import threading
import time

import numpy as np
import pytest

from majorantlab import InverseFn, TrigPoly, expsum, load_set, lp_norm
from majorantlab.cli import main
from majorantlab.sweeps import SweepResult, per_row, sweep
from majorantlab.verify import (
    VerifyReport,
    CheckResult,
    check_sawtooth_envelope,
    suite,
)


def read_rows(path):
    body = [l for l in open(path) if not l.startswith("#")]
    parsed = list(csv.reader(body))
    return [dict(zip(parsed[0], row)) for row in parsed[1:]]


def rows_without_timing(path):
    out = []
    for rec in read_rows(path):
        rec.pop("wall_ms")
        out.append(rec)
    return out


# -------------------------------------------------------------- subcommands


def test_thresholds_c2_one_column(tmp_path):
    assert main(["thresholds", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "thresholds.csv")
    ones = [r for r in rows if float(r["c2"]) == 1.0]
    assert len(ones) == 10
    assert all(float(r["value"]) == 2.0 for r in ones)
    # monotone in c2 for fixed c1
    for c1 in {r["c1"] for r in rows}:
        vals = [float(r["value"]) for r in rows if r["c1"] == c1]
        assert vals == sorted(vals)


def test_count_ratios_and_set_out(tmp_path):
    out_set = tmp_path / "biggest.txt"
    code = main(["count", "--N-list", "1e3,1e4,1e5", "--out", str(tmp_path),
                 "--set-out", str(out_set)])
    assert code == 0
    rows = read_rows(tmp_path / "count.csv")
    assert [int(r["N"]) for r in rows] == [10**3, 10**4, 10**5]
    assert abs(float(rows[-1]["ratio"]) - 1) < 0.05
    assert float(rows[0]["exponent"]) < 0
    back = load_set(out_set)
    assert back.spec.N == 10**5
    assert len(back.members) == int(float(rows[-1]["value"]))


def test_expsum_decay_exponents(tmp_path):
    code = main(["expsum-decay", "--N-list", "1e3,1e4,1e5",
                 "--xi-rule", "golden:1", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "expsum-decay.csv")
    assert len(rows) == 9  # three N, three frequencies (0, 1/2, golden)
    for xi in {r["xi"] for r in rows}:
        slopes = {r["exponent"] for r in rows if r["xi"] == xi}
        assert len(slopes) == 1
        assert float(slopes.pop()) < 0


def test_vdc_subcommand(tmp_path):
    code = main(["vdc", "--m-max", "3", "--levels", "10:12",
                 "--xi-rule", "0.0,0.5", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "vdc.csv")
    assert len(rows) == 3 * 2 * 3 * 2  # m, xi, N, l
    assert all(float(r["ratio"]) <= 50 for r in rows)


def test_majorant_subcommand_with_sidecar(tmp_path):
    sidecar = tmp_path / "coeffs.csv"
    code = main(["majorant", "--N-list", "256,512", "--p", "2.5",
                 "--budget", "40", "--seed", "3", "--out", str(tmp_path),
                 "--coeffs-out", str(sidecar)])
    assert code == 0
    rows = read_rows(tmp_path / "majorant.csv")
    assert len(rows) == 2
    assert all(float(r["value"]) >= 1 - 1e-9 for r in rows)
    lines = [l for l in sidecar.read_text().splitlines() if not l.startswith("#")]
    n, re, im = lines[0].split(",")
    assert abs(complex(float(re), float(im))) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_list", ["256,512", "512,256"])
def test_majorant_sidecar_is_the_reported_estimate(tmp_path, monkeypatch,
                                                   n_list):
    import majorantlab.cli as cli_mod
    import majorantlab.majorant as majorant_mod

    calls = []
    real = majorant_mod.estimate_constant

    def counting(*args, **kwargs):
        calls.append(args[0].N)
        return real(*args, **kwargs)

    monkeypatch.setattr(majorant_mod, "estimate_constant", counting)
    monkeypatch.setattr(cli_mod, "estimate_constant", counting, raising=False)
    sidecar = tmp_path / "coeffs.csv"
    assert main(["majorant", "--N-list", n_list, "--p", "2.5", "--budget", "40",
                 "--seed", "3", "--out", str(tmp_path),
                 "--coeffs-out", str(sidecar)]) == 0
    assert len(calls) == 2
    row = max(read_rows(tmp_path / "majorant.csv"), key=lambda r: int(r["N"]))
    lines = [l.split(",") for l in sidecar.read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == int(row["set_size"])
    A = [int(n) for n, _, _ in lines]
    coeffs = [complex(float(re), float(im)) for _, re, im in lines]
    base = lp_norm(TrigPoly(A, [1.0] * len(A)), 2.5, tol=1e-8).value
    top = lp_norm(TrigPoly(A, coeffs), 2.5, tol=1e-8).value
    assert max(top / base, 1.0) == pytest.approx(float(row["value"]), rel=1e-12)


def test_prop2_subcommand(tmp_path):
    code = main(["prop2", "--levels", "10:12", "--trials", "3",
                 "--out", str(tmp_path), "--seed", "5"])
    assert code == 0
    rows = read_rows(tmp_path / "prop2.csv")
    kinds = {r["quantity"] for r in rows}
    assert kinds == {"restriction_ratio_max", "mu_nu_fourier_sup"}


def test_verify_quick_passes(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    rows = read_rows(tmp_path / "verify.csv")
    assert all(float(r["value"]) == 1.0 for r in rows)


# ------------------------------------------------------------- exit codes


def test_exit_code_validation_error(tmp_path):
    # p below the admissible threshold for c2 > 1
    code = main(["majorant", "--c2", "1.1", "--ell2", "constant_one",
                 "--p", "2.5", "--N-list", "256", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["count", "--N-list", "1e12"],
    # beyond ~2^64 longdouble cannot step the floor-set endpoint by one
    ["count", "--kind", "floor_image", "--N-list", "1e30"],
    ["vdc", "--levels", "40:40"],
])
def test_exit_code_capacity_error(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 3


def test_exit_code_convergence_failure_is_capacity(tmp_path, capsys):
    # the quadrature cannot reach the tolerance under these grid caps
    prop2 = ["prop2", "--levels", "10:10", "--trials", "2", "--grid-cap", "8192"]
    majorant = ["majorant", "--N-list", "256", "--budget", "10",
                "--grid-cap", "4096"]
    for argv in (prop2, majorant):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "capacity/budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "--N-list", "1e3,abc"],
    ["--config", "/nonexistent/exp.ini", "count"],
    ["count", "--N-list", "1e400"],
    ["vdc", "--levels", "5:3"],
    ["prop2", "--levels", "5:3"],
    ["count", "--N-list", ""],
    ["prop2", "--trials", "0"],
    ["vdc", "--xi-rule", ","],
    ["expsum-decay", "--xi-rule", ","],
    ["lemma2", "--xi-rule", ","],
    ["vdc", "--m-max", "0"],
    ["majorant", "--N-list", "256", "--p", "inf"],
    ["majorant", "--N-list", "256", "--p", "1e400"],
    ["majorant", "--N-list", "256", "--p", "nan"],
    ["prop2", "--levels", "10:10", "--trials", "2", "--p-offset", "inf"],
    ["prop2", "--levels", "10:10", "--trials", "2", "--p-offset", "nan"],
    ["majorant", "--N-list", "256", "--budget", "0"],
    ["majorant", "--N-list", "256", "--budget", "-5"],
    ["prop2", "--levels", "10:10", "--grid-cap", "0"],
    ["prop2", "--levels", "10:10", "--grid-cap", "-5"],
    ["count", "--N-list", "1e3", "--workers", "0"],
    ["count", "--N-list", "1e3", "--workers", "-2"],
    ["majorant", "--N-list", "256", "--method", "phase"],
    ["vdc", "--levels", "10"],
    ["vdc", "--levels", "a:b"],
    ["vdc", "--xi-rule", "golden:x"],
    ["vdc", "--xi-rule", "random:-1"],
    ["vdc", "--xi-rule", "0.1,x"],
    # the removed aliases of --N-list, --p-offset 0 and --ell1/--ell2
    ["majorant", "--N-list", "256", "--N", "512"],
    ["prop2", "--at-endpoint"],
    ["count", "--N-list", "1e3", "--family", "log_power"],
    # levels below the smallest usable one: an empty B_1, a fractional N
    # and an N below phi1's domain
    ["prop2", "--levels", "0:2"],
    ["prop2", "--levels=-1:2"],
    ["vdc", "--levels", "0:3"],
])
def test_exit_code_bad_input(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and err.count("\n") == 1
    # the flag under test is the last one given (as --flag value or
    # --flag=value); the message names it
    flag = argv[-1].partition("=")[0] if "=" in argv[-1] else argv[-2]
    if flag in ("--xi-rule", "--m-max", "--p-offset", "--budget",
                "--grid-cap", "--workers", "--levels"):
        assert flag[2:] in err
    if "--p" in argv:
        assert "p must be finite" in err


def test_levels_below_domain_name_the_smallest_level(tmp_path, capsys):
    # x log x is defined from h(2) = 1.39 on, so level 1 is the first
    # usable one for vdc and prop2 alike, and it runs
    for argv in (["vdc", "--levels", "0:3"], ["prop2", "--levels", "0:2"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "start below 1, the smallest usable level" in capsys.readouterr().err
    assert main(["prop2", "--levels", "1:2", "--trials", "2", "--out",
                 str(tmp_path)]) == 0


@pytest.mark.parametrize("outside", [None, "8192"])
def test_grid_cap_flag_applies_to_one_call(tmp_path, monkeypatch, outside):
    # the cap is an argument of one call: the next call without the flag
    # runs at the default, and MAJORANTLAB_GRID_CAP (absent or preset to
    # a cap too small for these levels) is not read
    if outside is None:
        monkeypatch.delenv("MAJORANTLAB_GRID_CAP", raising=False)
    else:
        monkeypatch.setenv("MAJORANTLAB_GRID_CAP", outside)
    prop2 = ["prop2", "--levels", "10:11", "--trials", "2", "--out",
             str(tmp_path)]
    assert main(prop2 + ["--grid-cap", "8192"]) == 3
    assert main(prop2) == 0


def test_grid_cap_reaches_worker_threads_and_config_file(tmp_path):
    # the cap travels as an argument: into the worker threads of a
    # two-level prop2, and from the config-file key as from the flag
    prop2 = ["prop2", "--levels", "10:11", "--trials", "2", "--workers", "2"]
    assert main(prop2 + ["--grid-cap", "8192", "--out", str(tmp_path)]) == 3
    cfg = tmp_path / "cap.ini"
    cfg.write_text("[params]\ngrid_cap = 8192\n")
    assert main(["--config", str(cfg)] + prop2 + ["--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_grid_cap_below_one_in_config_file(tmp_path, capsys, cap):
    cfg = tmp_path / "cap.ini"
    cfg.write_text(f"[params]\ngrid_cap = {cap}\n")
    argv = ["--config", str(cfg), "prop2", "--levels", "10:10", "--out",
            str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and err.count("\n") == 1
    assert "grid_cap" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_in_config_file(tmp_path, capsys, workers):
    cfg = tmp_path / "workers.ini"
    cfg.write_text(f"[params]\nworkers = {workers}\n")
    argv = ["--config", str(cfg), "count", "--N-list", "1e3", "--out",
            str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and err.count("\n") == 1
    assert "workers" in err
    assert not (tmp_path / "count.csv").exists()


def test_exit_code_verify_failure(tmp_path, monkeypatch):
    import majorantlab.cli as cli_mod

    def fake_suite(level):
        return VerifyReport([CheckResult("x", "quick", False, "boom")])

    monkeypatch.setattr(cli_mod._verify, "suite", fake_suite)
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 4


# ----------------------------------------------------------- reproducibility


def test_byte_identical_outputs_same_seed(tmp_path):
    args = ["expsum-decay", "--N-list", "1e3,1e4", "--xi-rule", "golden:1",
            "--seed", "99"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert rows_without_timing(a / "expsum-decay.csv") == \
        rows_without_timing(b / "expsum-decay.csv")


def test_sweep_starts_largest_tasks_first():
    lock = threading.Lock()
    started = []

    def task(N):
        with lock:
            started.append(N)
        time.sleep(0.05)
        return [SweepResult(experiment="count", quantity="q", value=float(N),
                            params={"N": N})]

    axis = [1000, 3000, 1000, 8000]
    rows = sweep(axis, task, per_row(lambda r: r.value), workers=2)
    assert set(started[:2]) == {3000, 8000}
    assert sorted(started) == sorted(axis)
    assert [r.params["N"] for r in rows] == axis
    assert all(r.exponent == pytest.approx(1.0) for r in rows)
    assert all(r.wall_ms >= 50 for r in rows)


def recording_builds(monkeypatch):
    """The N of every set the CLI builds, in the order the builds start."""
    import majorantlab.cli as cli_mod

    lock = threading.Lock()
    started = []
    real = cli_mod.build_frac_set

    def recording(spec):
        with lock:
            started.append(spec.N)
        time.sleep(0.05)
        return real(spec)

    monkeypatch.setattr(cli_mod, "build_frac_set", recording)
    return started


def test_majorant_starts_largest_tasks_first(tmp_path, monkeypatch):
    started = recording_builds(monkeypatch)
    assert main(["majorant", "--N-list", "256,1024,512,2048", "--p", "2.5",
                 "--budget", "20", "--seed", "3", "--workers", "2",
                 "--out", str(tmp_path)]) == 0
    assert set(started[:2]) == {1024, 2048}
    rows = read_rows(tmp_path / "majorant.csv")
    assert [int(r["N"]) for r in rows] == [256, 1024, 512, 2048]


def test_majorant_coeffs_out_builds_each_set_once(tmp_path, monkeypatch):
    started = recording_builds(monkeypatch)
    assert main(["majorant", "--N-list", "512,256", "--p", "2.5",
                 "--budget", "20", "--seed", "3", "--out", str(tmp_path),
                 "--coeffs-out", str(tmp_path / "coeffs.csv")]) == 0
    assert sorted(started) == [256, 512]


def test_vdc_rows_share_their_task_time(tmp_path):
    assert main(["vdc", "--m-max", "2", "--levels", "10:11",
                 "--xi-rule", "0.0,0.5", "--out", str(tmp_path)]) == 0
    times = {float(r["wall_ms"]) for r in read_rows(tmp_path / "vdc.csv")}
    assert len(times) == 1 and times.pop() > 0


@pytest.mark.parametrize("argv, sidecar", [
    (["count", "--N-list", "1e3,3e3,1e4,3e4", "--seed", "4"], False),
    (["majorant", "--N-list", "256,1024,512", "--p", "2.5", "--budget", "40",
      "--seed", "4"], True),
], ids=["count", "majorant"])
def test_identical_across_worker_counts(tmp_path, argv, sidecar):
    one, many = tmp_path / "w1", tmp_path / "w8"
    for workers, out in (("1", one), ("8", many)):
        extra = ["--coeffs-out", str(out / "coeffs.csv")] if sidecar else []
        assert main(argv + ["--workers", workers, "--out", str(out)]
                    + extra) == 0
    csv_name = f"{argv[0]}.csv"
    assert rows_without_timing(one / csv_name) == \
        rows_without_timing(many / csv_name)
    if sidecar:
        assert (one / "coeffs.csv").read_bytes() == \
            (many / "coeffs.csv").read_bytes()


def test_config_echo_and_file(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nname = count\n"
        "[h1]\nfamily = log_power\nB = 1.0\nc = 1.0\n"
        "[h2]\nfamily = log_power\nB = 1.0\nc = 1.0\n"
        "[params]\nn_list = 1000,2000\nseed = 21\n")
    code = main(["--config", str(cfg), "count", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "count.csv").read_text()
    assert text.startswith("#")
    assert "# seed = 21" in text
    rows = read_rows(tmp_path / "count.csv")
    assert [int(r["N"]) for r in rows] == [1000, 2000]
    # flags override the file
    code = main(["--config", str(cfg), "count", "--N-list", "500",
                 "--out", str(tmp_path)])
    rows = read_rows(tmp_path / "count.csv")
    assert [int(r["N"]) for r in rows] == [500]


def test_config_h_keys_keep_their_case(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[h1]\nfamily = log_power\nB = 3.0\nc = 1.0\n"
        "[h2]\nfamily = exp_log_power\nC = 0.3\n"
        "[Params]\nN_List = 1000\nSEED = 21\n")
    assert main(["--config", str(cfg), "count", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "count.csv").read_text()
    assert "# h1 = B=3.0, c=1.0, family=log_power" in text
    assert "# seed = 21" in text
    row = read_rows(tmp_path / "count.csv")[0]
    assert row["N"] == "1000"
    assert row["h1"] == "family=log_power, B=3, c=1, x0=2"
    assert row["h2"].startswith("family=exp_log_power, B=1, C=0.3, c=1,")


@pytest.mark.parametrize("text,word", [
    ("[h1]\nfamily = log_power\nb = 3.0\n", "key(s) b in [h1]"),
    ("[params]\nseed = 1\nSEED = 2\n", "twice"),
    ("[params]\nmetod = signs\n", "key(s) metod in [params]"),
    ("[params]\nmethod = phase\n", "key(s) method in [params]"),
    ("[experiment]\nname = thresholds\n",
     "names experiment 'thresholds', the subcommand is 'count'"),
    # a file value goes through the choices of its flag (--format)
    ("[params]\nfmt = cvs\n", "fmt = 'cvs' is not one of"),
])
def test_config_bad_keys_are_invalid(tmp_path, capsys, text, word):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "count", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "invalid parameters" in err and word in err
    assert not list(tmp_path.glob("count.*"))


@pytest.mark.parametrize("argv, bound", [
    (["count", "--kind", "frac_plus", "--N-list", "2e4"], 1.05 * 2e4),
    (["vdc", "--xi-rule", "0.3", "--levels", "12:14", "--m-max", "2"],
     1.05 * 2**14),
    # one scan serves every xi: the set scan plus one model scan
    (["expsum-decay", "--N-list", "2e4", "--xi-rule", "golden:2"], 2.1 * 2e4),
    (["vdc", "--xi-rule", "golden:2", "--levels", "12:14", "--m-max", "2"],
     1.05 * 2**14),
], ids=["count", "vdc", "expsum-decay-xis", "vdc-xis"])
def test_count_solves_each_index_once(tmp_path, monkeypatch, argv, bound):
    points = []
    pair = InverseFn.pair

    def counting(phi, y):
        points.append(np.size(y))
        return pair(phi, y)

    monkeypatch.setattr(InverseFn, "pair", counting)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sum(points) <= bound


def test_jsonl_mirror_matches_csv(tmp_path):
    assert main(["count", "--N-list", "1e3", "--out", str(tmp_path)]) == 0
    csv_rows = read_rows(tmp_path / "count.csv")
    lines = (tmp_path / "count.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert "config" in head
    recs = [json.loads(l) for l in lines[1:]]
    assert len(recs) == len(csv_rows)
    assert recs[0]["N"] == int(csv_rows[0]["N"])
    assert recs[0]["value"] == float(csv_rows[0]["value"])


# ----------------------------------------------------- verify suite details


def test_sawtooth_mutation_is_caught():
    # a sign error in the sawtooth must trip the envelope check
    def broken(x):
        return -(expsum.sawtooth(x))

    ok, _ = check_sawtooth_envelope()
    assert ok
    bad, measured = check_sawtooth_envelope(sawtooth_fn=broken)
    assert not bad


def test_suite_levels():
    quick = suite("quick")
    assert quick.all_passed
    assert all(r.level == "quick" for r in quick.results)
    # the acceptance checks at their reduced default sizes
    full = suite("full")
    assert full.all_passed, list(full.lines())
    assert len(full.results) > len(quick.results)
    with pytest.raises(ValueError):
        suite("nope")
