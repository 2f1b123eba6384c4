"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The whole module is sized for a workstation run;
the slowest criteria (uniformity sweeps) take a few minutes each.
"""

import csv

import numpy as np

from majorantlab import (
    InverseFn,
    PsiFn,
    RegVaryFn,
    SlowlyVaryingSpec,
    TrigPoly,
    brute_force_constant,
    build_floor_set,
    build_frac_set,
    error_term,
    estimate_constant,
    even_p_oracle,
    fit_loglog_slope,
    golden_xis,
    lp_norm,
    measure_mu,
    measure_nu,
    p_threshold,
    restriction_ratios,
    uniformity_sweep,
)
from majorantlab.cli import main
from majorantlab.expsum import vdc_ratio_sweep
from majorantlab.majorant import MajorantProblem
from majorantlab.sparseset import (
    SetSpec,
    member_floor_characterization,
    member_frac,
)
from majorantlab.trigpoly import fourier_sup_of_difference


def xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# ---------------------------------------------------------------------- 1


def test_criterion_1_cardinality():
    h = xlogx()
    phi2 = InverseFn(h)
    Ns = [10**4, 10**5, 10**6, 10**7]
    ratios = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        ratios.append(len(b) / phi2.invert(float(N)))
    slope = fit_loglog_slope(Ns, np.abs(np.asarray(ratios) - 1.0))
    ok = 0.95 <= ratios[-1] <= 1.05 and slope < 0
    assert _report(1, ok, f"ratio(1e7) = {ratios[-1]:.5f}, "
                          f"|ratio-1| exponent = {slope:.3f}")


# ---------------------------------------------------------------------- 2


def test_criterion_2_structural_identities():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    N = 10**6
    guard = 1e-9

    n = np.arange(psi.n_min, N + 1)
    frac_member, margin = member_frac(n, phi, psi, "plus")
    floor_member = member_floor_characterization(n, phi, psi)
    disagree = frac_member != floor_member
    hard_mismatches = int(np.count_nonzero(
        disagree & (np.abs(margin) >= guard)))

    minus = build_frac_set(SetSpec("frac_minus", h, h, N))
    floor_img = build_floor_set(h, N)
    expected = floor_img.members[floor_img.members >= minus.n_min]
    sym_diff = np.setxor1d(minus.members, expected)
    hard_set_mismatches = 0
    for m in sym_diff:
        _, mg = member_frac(int(m), phi, psi, "minus")
        if abs(mg) >= guard:
            hard_set_mismatches += 1

    frac_borderline = minus.borderline_fraction
    ok = (hard_mismatches == 0 and hard_set_mismatches == 0
          and frac_borderline <= 1e-6)
    assert _report(2, ok, f"equiv mismatches = {hard_mismatches}, "
                          f"set mismatches = {hard_set_mismatches}, "
                          f"borderline fraction = {frac_borderline:.2e}")


# ---------------------------------------------------------------------- 3


def test_criterion_3_eq20_decay():
    h = xlogx()
    phi2 = InverseFn(h)
    Ns = [10**4, 10**5, 10**6, 10**7]
    xis = [0.0, 0.5, float(golden_xis(1)[0])]
    slopes = {}
    sets = {N: build_frac_set(SetSpec("frac_plus", h, h, N)) for N in Ns}
    for xi in xis:
        rel = [error_term(sets[N], xi) / phi2.invert(float(N)) for N in Ns]
        slopes[xi] = fit_loglog_slope(Ns, rel)
    ok = all(s <= -0.05 for s in slopes.values())
    assert _report(3, ok, "error/phi2 exponents " +
                   ", ".join(f"{xi:.3f}: {s:.3f}" for xi, s in slopes.items()))


# ---------------------------------------------------------------------- 4


def test_criterion_4_lemma1_envelope():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    levels = [2**j for j in range(10, 25)]
    rows = vdc_ratio_sweep(phi, psi, m_max=64, xi_list=golden_xis(8),
                           levels=levels)
    ratios = np.array([r.ratio for r in rows])
    Ns = np.array([r.params["N"] for r in rows])
    per_level = [ratios[Ns == N].max() for N in levels]
    slope = fit_loglog_slope(levels, per_level)
    ok = np.isfinite(ratios).all() and ratios.max() <= 50 and slope <= 0.02
    assert _report(4, ok, f"max |sum|/bound = {ratios.max():.4f} "
                          f"(fitted constant), growth slope = {slope:.3f}")


# ---------------------------------------------------------------------- 5


def test_criterion_5_norm_engine():
    rng = np.random.default_rng(20250810)
    worst_parseval = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 48))
        degree = int(rng.integers(size, 2**16))
        support = np.sort(rng.choice(degree + 1, size=size, replace=False))
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        P = TrigPoly(support, coeffs)
        l2 = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
        worst_parseval = max(worst_parseval,
                             abs(lp_norm(P, 2.0).value - l2))

    worst_oracle = 0.0
    for _ in range(40):
        size = int(rng.integers(4, 65))
        support = np.sort(rng.choice(3000, size=size, replace=False))
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        P = TrigPoly(support, coeffs)
        for p in (4, 6):
            a = lp_norm(P, float(p)).value
            b = even_p_oracle(P, p) ** (1.0 / p)
            worst_oracle = max(worst_oracle, abs(a - b) / b)

    pair = lp_norm(TrigPoly([1, 2], [1.0, 1.0]), 4.0).value
    pair_err = abs(pair - 6 ** 0.25)
    ok = worst_parseval <= 1e-10 and worst_oracle <= 1e-8 and pair_err <= 1e-10
    assert _report(5, ok, f"Parseval {worst_parseval:.2e}, "
                          f"oracle rel {worst_oracle:.2e}, "
                          f"pair-set p=4 err {pair_err:.2e}")


# ---------------------------------------------------------------------- 6


def test_criterion_6_even_p_exactness():
    rng = np.random.default_rng(61)
    worst = 1.0
    for _ in range(50):
        size = int(rng.integers(3, 14))
        top = int(rng.integers(size + 1, 400))
        A = np.sort(rng.choice(top, size=size, replace=False))
        for p in (2.0, 4.0, 6.0):
            est = estimate_constant(
                MajorantProblem(A, top, p, seed=int(rng.integers(2**32))),
                restarts=4, max_iter=30)
            worst = max(worst, est.value)

    h = xlogx()
    for N in (10**3, 10**4, 10**5):
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        for p in (2.0, 4.0, 6.0):
            est = estimate_constant(
                MajorantProblem(b.members, N, p, budget=60, seed=7),
                restarts=2, max_iter=15)
            worst = max(worst, est.value)
    ok = worst <= 1 + 1e-6
    assert _report(6, ok, f"max even-p estimate = {worst!r}")


# ---------------------------------------------------------------------- 7


def test_criterion_7_c3_phenomenon():
    A = [0, 1, 3]
    bf = brute_force_constant(A, 3.0, "signs")
    est = estimate_constant(MajorantProblem(np.array(A), 3, 3.0, seed=1),
                            method="signs")
    ok = bf.value >= 1.0005 and abs(est.value - bf.value) <= 1e-6
    assert _report(7, ok, f"brute force = {bf.value:.6f} on {{0,1,3}}, "
                          f"|estimate - bf| = {abs(est.value - bf.value):.2e}")


# ---------------------------------------------------------------------- 8


def test_criterion_8_theorem1_surrogate():
    h = xlogx()

    def build(N):
        return build_frac_set(SetSpec("frac_plus", h, h, N))

    Ns = [2**j for j in range(10, 17)]
    rows, _ = uniformity_sweep(build, 2.5, Ns, seed=2024)
    slope = rows[0].exponent
    below = all(r.value <= r.reference for r in rows)
    ok = slope <= 0.02 and below
    assert _report(8, ok, f"estimate slope = {slope:.4f}, "
                          f"values {[round(r.value, 6) for r in rows]}, "
                          f"below envelope: {below}")


# ---------------------------------------------------------------------- 9


def test_criterion_9_theorem2_prop2_surrogate():
    h1 = xlogx()
    h2 = RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))
    p = p_threshold(h1.c, h2.c) + 0.5
    Ns = [2**j for j in range(10, 19)]
    maxima = []
    sups = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h1, h2, N))
        maxima.append(max(restriction_ratios(b, p, trials=16, seed=9)))
        sup, _ = fourier_sup_of_difference(measure_mu(b), measure_nu(N))
        sups.append(sup)
    ratio_slope = fit_loglog_slope(Ns, maxima)
    sup_slope = fit_loglog_slope(Ns, sups)
    ok = ratio_slope <= 0.02 and sup_slope < 0
    assert _report(9, ok, f"p = {p:.2f}, ratio slope = {ratio_slope:.4f}, "
                          f"mu-nu sup exponent = {sup_slope:.3f}")


# --------------------------------------------------------------------- 10


def test_criterion_10_threshold_formula():
    exact_two = all(p_threshold(c1, 1.0) == 2.0
                    for c1 in (1.0, 1.25, 1.5, 1.9))
    endpoint = abs(p_threshold(1.0, 6 / 5 - 1e-9) - 6.0) <= 1e-6
    monotone = True
    for c1 in (1.0, 1.5, 1.9):
        grid = [p_threshold(c1, c2)
                for c2 in np.linspace(1.0, 6 / 5 - 1e-9, 20)]
        monotone = monotone and all(b > a - 1e-12
                                    for a, b in zip(grid, grid[1:]))
    ok = exact_two and endpoint and monotone
    assert _report(10, ok, f"c2=1 column exact: {exact_two}, "
                           f"endpoint-6 ok: {endpoint}, monotone: {monotone}")


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
