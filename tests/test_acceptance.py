"""Acceptance suite: every criterion at its stated sizes and tolerance.

Criteria 1-10 call the one definition of each check in
`majorantlab.verify` at the acceptance sizes and seeds; `majorantlab
verify --level full` runs the same definitions at reduced sizes.
Criterion 11 drives the CLI.  Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  The whole module is sized for a workstation run; the
slowest criteria (uniformity sweeps) take a few minutes each.
"""

import csv

from majorantlab import golden_xis, verify
from majorantlab.cli import main
from majorantlab.majorant import DEFAULT_BUDGET


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_cardinality():
    assert _report(1, *verify.check_cardinality([10**4, 10**5, 10**6, 10**7]))


def test_criterion_2_structural_identities():
    assert _report(2, *verify.check_structural_identities(10**6))


def test_criterion_3_eq20_decay():
    assert _report(3, *verify.check_eq20_decay(
        [10**4, 10**5, 10**6, 10**7], [0.0, 0.5, float(golden_xis(1)[0])]))


def test_criterion_4_lemma1_envelope():
    assert _report(4, *verify.check_lemma1_envelope(
        [2**j for j in range(10, 25)], m_max=64, n_xis=8))


def test_criterion_5_norm_engine():
    assert _report(5, *verify.check_norm_engine(
        seed=20250810, parseval_trials=1000, oracle_trials=40))


def test_criterion_6_even_p_exactness():
    assert _report(6, *verify.check_even_p_exactness(
        n_sets=50, Ns=[10**3, 10**4, 10**5]))


def test_criterion_7_c3_phenomenon():
    assert _report(7, *verify.check_c3_phenomenon())


def test_criterion_8_theorem1_surrogate():
    assert _report(8, *verify.check_uniformity(
        [2**j for j in range(10, 17)], budget=DEFAULT_BUDGET, seed=2024))


def test_criterion_9_theorem2_prop2_surrogate():
    assert _report(9, *verify.check_prop2(
        [2**j for j in range(10, 19)], trials=16, seed=9))


def test_criterion_10_threshold_formula():
    assert _report(10, *verify.check_threshold_formula())


# --------------------------------------------------------------------- 11


def _rows_without_timing(path):
    body = [l for l in open(path) if not l.startswith("#")]
    parsed = list(csv.reader(body))
    header = parsed[0]
    drop = header.index("wall_ms")
    return [[c for i, c in enumerate(row) if i != drop] for row in parsed]


def test_criterion_11_determinism(tmp_path):
    args = ["expsum-decay", "--N-list", "1e3,1e4,3e4",
            "--xi-rule", "golden:2", "--seed", "77"]
    outs = []
    for tag, extra in (("r1", ["--workers", "1"]),
                       ("r2", ["--workers", "1"]),
                       ("w8", ["--workers", "8"])):
        out = tmp_path / tag
        assert main(args + extra + ["--out", str(out)]) == 0
        outs.append(_rows_without_timing(out / "expsum-decay.csv"))
    same_seed = outs[0] == outs[1]
    same_workers = outs[0] == outs[2]
    ok = same_seed and same_workers
    assert _report(11, ok, f"same-seed identical: {same_seed}, "
                           f"workers 1 vs 8 identical: {same_workers}")
