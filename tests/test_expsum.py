import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from majorantlab import (CapacityError, InverseFn, PsiFn, RegVaryFn,
                         SlowlyVaryingSpec, expsum, rvfunc)
from majorantlab.expsum import (
    decompose_I,
    delta_from_margin,
    dirichlet_sum,
    error_term,
    exp_sum,
    lemma1_bound,
    model_sum,
    sawtooth,
    sawtooth_envelope,
    sawtooth_truncated,
    truncation_M,
    vdc_bound,
    vdc_ratio_sweep,
    vdc_sum,
    weighted_inverse_vs_dirichlet,
)
from majorantlab.compensated import frac_product
from majorantlab.majorant import admissibility_margin
from majorantlab.trigpoly import fourier_of_measure, measure_mu
from majorantlab.sparseset import (
    SetSpec,
    SparseSet,
    build_floor_set,
    build_frac_set,
    member_floor_characterization,
    member_frac,
)
from majorantlab.sweeps import fit_loglog_slope, golden_xis


def xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


def x15():
    return RegVaryFn(1.5, SlowlyVaryingSpec("constant_one"), x0=1.0)


def bset_xlogx(N):
    h = xlogx()
    return build_frac_set(SetSpec("frac_plus", h, h, N))


class ConstPsi:
    def __init__(self, value, n_min=1):
        self.v = value
        self.n_min = n_min

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=np.float64), self.v)


def full_interval_set(N):
    """Synthetic calibration set: all of [1, N] with a unit window."""
    h = x15()
    spec = SetSpec("frac_plus", h, h, N)
    return SparseSet(spec, np.arange(1, N + 1, dtype=np.int64), n_min=1,
                     phi1=InverseFn(h), psi=ConstPsi(1.0))


# ---------------------------------------------------------------- exp_sum


def test_exp_sum_at_zero_counts_members():
    b = bset_xlogx(10**4)
    s = exp_sum(b, [0.0])
    assert s.tolist() == [complex(len(b))]


def test_exp_sum_half_parity():
    s = build_floor_set(x15(), 12)
    assert s.members.tolist() == [1, 2, 5, 8, 11]
    val = exp_sum(s, [0.5])[0]
    assert val == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_exp_sum_triangle_inequality():
    b = bset_xlogx(10**4)
    for w in ("unit", "psi_inverse"):
        total = abs(exp_sum(b, golden_xis(1), w)[0])
        cap = np.sum(np.abs(
            np.ones(len(b)) if w == "unit"
            else 1.0 / b.psi(b.members.astype(float))))
        assert total <= cap * (1 + 1e-12)


def test_exp_sum_conjugation_symmetry():
    b = bset_xlogx(5000)
    xi = 0.3125  # exactly representable, so is 1 - xi
    a, c = exp_sum(b, [xi, 1.0 - xi])
    assert a == pytest.approx(np.conj(c), abs=1e-9)


def test_psi_inverse_at_zero_near_N():
    N = 10**4
    b = bset_xlogx(N)
    s = exp_sum(b, [0.0], "psi_inverse")[0]
    assert abs(s.real - N) / N < 0.05
    assert s.imag == 0.0


def test_one_scan_per_frequency_vector_is_bitwise_per_xi():
    # each xi's total is what a call with that xi alone gives, for the
    # set sums, the psi model and the measure transform alike
    b = bset_xlogx(3 * 10**4)
    xis = [0.0, 0.5, float(golden_xis(1)[0]), 0.5]
    mu = measure_mu(b)
    for many, one in (
        (exp_sum(b, xis), lambda xi: exp_sum(b, [xi])),
        (exp_sum(b, xis, "psi_inverse"),
         lambda xi: exp_sum(b, [xi], "psi_inverse")),
        (model_sum(b.spec.N, xis, "psi", psi=b.psi),
         lambda xi: model_sum(b.spec.N, [xi], "psi", psi=b.psi)),
        (fourier_of_measure(mu, xis), lambda xi: fourier_of_measure(mu, [xi])),
    ):
        assert many.shape == (len(xis),)
        assert many.tolist() == [one(xi)[0] for xi in xis]
    assert exp_sum(b, []).shape == (0,)


@pytest.mark.parametrize("args, word", [
    (([0.2, 1.0], "unit"), "[0, 1)"),
    (([-0.1], "unit"), "[0, 1)"),
    (([0.2], "squared"), "unknown weight"),
    (([0.2], "psi"), "unknown weight"),
])
def test_exp_sum_rejects_bad_requests(args, word):
    with pytest.raises(ValueError, match=re.escape(word)):
        exp_sum(bset_xlogx(2000), *args)


def test_exp_sum_non_unit_weight_needs_a_window():
    floor_set = build_floor_set(x15(), 100)
    assert exp_sum(floor_set, [0.25]).shape == (1,)
    with pytest.raises(ValueError, match="window"):
        exp_sum(floor_set, [0.25], "psi_inverse")


# -------------------------------------------------------------- model_sum


def test_dirichlet_trivial_values():
    assert model_sum(17, [0.0], "unit").tolist() == [17]
    assert model_sum(4, [0.5], "unit")[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("N", [7, 100, 12345])
def test_dirichlet_closed_form_matches_direct(N):
    rng = np.random.default_rng(7)
    for xi in rng.random(5):
        direct = np.sum(np.exp(2j * np.pi
                               * frac_product(xi, np.arange(1, N + 1.0))))
        assert dirichlet_sum(N, xi) == pytest.approx(direct, abs=1e-9 * N)


def test_psi_model_sum_telescopes():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    N = 10**6
    got = model_sum(N, [0.0], "psi", psi=psi)[0]
    expected = phi.invert(N + 1.0) - phi.invert(float(psi.n_min))
    assert got.imag == 0.0
    assert got.real == pytest.approx(expected, rel=1e-9)
    # within 1% of phi2(N) once the boundary terms are negligible
    assert got.real == pytest.approx(phi.invert(float(N)), rel=0.01)


# ------------------------------------------------------------- error_term


def test_error_term_at_zero_matches_count_discrepancy():
    b = bset_xlogx(10**5)
    via_sums = error_term(b, [0.0])[0]
    plain = abs(len(b) - model_sum(b.spec.N, [0.0], "psi", psi=b.psi)[0].real)
    assert via_sums == plain


def test_error_term_zero_for_full_interval():
    b = full_interval_set(4096)
    assert error_term(b, [0.37]).tolist() == [0.0]


def test_error_term_decays():
    xi = float(golden_xis(1)[0])
    Ns = [10**4, 10**5, 10**6]
    h = xlogx()
    phi = InverseFn(h)
    rel = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        rel.append(error_term(b, [xi])[0] / phi.invert(float(N)))
    assert fit_loglog_slope(Ns, rel) < 0


@pytest.mark.parametrize("block", [1 << 6, rvfunc.CHUNK])
def test_sums_do_not_depend_on_the_block(block, monkeypatch):
    b = bset_xlogx(2 * 10**4)
    xis = [0.0, 0.5, 0.3141]

    def sums():
        rows = vdc_ratio_sweep(b.phi1, b.psi, 3, xis, [2**10, 2**11, 2**12, 2**13])
        return (error_term(b, xis), weighted_inverse_vs_dirichlet(b, xis),
                [(r.value, r.ratio) for r in rows])

    before = sums()
    monkeypatch.setattr(rvfunc, "BLOCK", block)
    err, dev, vdc = sums()
    assert np.array_equal(err, before[0]) and np.array_equal(dev, before[1])
    assert vdc == before[2]


def test_error_term_memory_is_bounded_by_the_chunk():
    # one chunk's indices, weights and terms, with the terms filled BLOCK
    # at a time rather than through chunk-long temporaries
    b = bset_xlogx(10**6)
    tracemalloc.start()
    try:
        error_term(b, [0.0, 0.5, 0.3141])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_weighted_inverse_full_interval():
    b = full_interval_set(2048)
    assert weighted_inverse_vs_dirichlet(b, [0.5])[0] <= 1e-8


def test_weighted_inverse_growth_subzero_exponent():
    Ns = [10**3, 10**4, 10**5]
    h = xlogx()
    devs = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        devs.append(weighted_inverse_vs_dirichlet(b, [0.0])[0])
    assert fit_loglog_slope(Ns, devs) < 1.0


# --------------------------------------------------------------- sawtooth


def test_sawtooth_values():
    assert sawtooth(0.25) == -0.25
    assert sawtooth(3.0) == -0.5
    assert sawtooth(-2.0) == -0.5
    assert sawtooth(1.75) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("M", [8, 64, 512])
def test_sawtooth_truncation_envelope(M):
    x = np.linspace(0.001, 0.999, 1999)
    err = np.abs(sawtooth(x) - sawtooth_truncated(x, M))
    K = np.max(err / sawtooth_envelope(x, M))
    assert K <= 2.0


# ----------------------------------------------------------- Van der Corput


def test_vdc_empty_range():
    phi = InverseFn(xlogx())
    assert vdc_sum(1, 0, 0.0, 10.2, 10.8, phi) == 0


def test_vdc_linear_phase_is_geometric():
    ident = RegVaryFn(1.0, SlowlyVaryingSpec("constant_one"), x0=1.0, check=False)
    phi = InverseFn(ident)  # phi(n) = n
    xi = 0.171875
    got = vdc_sum(2, 0, xi, 16, 64, phi)
    # e(xi n + 2 n) = e(xi n): geometric sum over [16, 64]
    expected = dirichlet_sum(64, xi) - dirichlet_sum(15, xi)
    assert got == pytest.approx(expected, abs=1e-10)


def test_vdc_dyadic_splitting():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    X = 1000
    whole = vdc_sum(3, 1, 0.3, X, 4 * X, phi, psi)
    parts = (vdc_sum(3, 1, 0.3, X, 2 * X, phi, psi)
             + vdc_sum(3, 1, 0.3, 2 * X + 1, 4 * X, phi, psi))
    assert whole == pytest.approx(parts, abs=1e-9)


def test_vdc_bound_sigma_one_branch():
    phi = InverseFn(x15())
    X = 100.0
    assert vdc_bound(4, X, phi) == pytest.approx(
        2.0 * X / math.sqrt(phi.invert(X)), rel=1e-12)


def test_vdc_bound_monotone_in_X():
    phi = InverseFn(xlogx())
    Xs = [2.0**k for k in range(6, 20)]
    vals = [vdc_bound(1, X, phi) for X in Xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_vdc_sum_respects_bound_loosely():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    X = 2.0**16
    got = abs(vdc_sum(3, 1, 0.3, X, 2 * X, phi, psi))
    assert got <= 50 * vdc_bound(3, X, phi)


def test_lemma1_bound_is_log_weighted():
    phi = InverseFn(xlogx())
    assert lemma1_bound(5, 4096.0, phi) == pytest.approx(
        vdc_bound(5, 4096.0, phi) * math.log(4096.0), rel=1e-12)


def test_vdc_ratio_sweep_matches_direct():
    h = xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    levels = [2**10, 2**11]
    xis = [0.0, float(golden_xis(1)[0])]
    rows = vdc_ratio_sweep(phi, psi, m_max=3, xi_list=xis, levels=levels)
    assert len(rows) == 2 * 3 * 2 * 2
    for r in rows:
        direct = vdc_sum(r.params["m"], r.params["l"], r.params["xi"],
                         psi.n_min, r.params["N"], phi, psi)
        assert r.value == pytest.approx(abs(direct), rel=1e-9, abs=1e-9)


def test_vdc_ratio_sweep_bounds_are_lemma1():
    phi = InverseFn(xlogx())
    psi = PsiFn(phi)
    rows = vdc_ratio_sweep(phi, psi, m_max=7, xi_list=[0.25],
                           levels=[2**10, 2**13])
    for r in rows:
        want = lemma1_bound(r.params["m"], float(r.params["N"]), phi)
        assert abs(r.reference - want) <= 4 * np.finfo(float).eps * want


# ------------------------------------------------- sawtooth decomposition


def test_decompose_reconstructs_error_sum():
    h = xlogx()
    b = build_frac_set(SetSpec("frac_plus", h, h, 10**4))
    xis = [0.0, 0.5, float(golden_xis(1)[0])]
    errors = exp_sum(b, xis) - model_sum(b.spec.N, xis, "psi", psi=b.psi)
    for xi, S in zip(xis, errors):
        I1, I2, I3 = decompose_I(b, xi, M=64)
        assert abs(S - I1) <= 2.0 * (I2 + I3) + 1e-9
        assert abs(abs(S) - abs(I1)) <= 2.0 * (I2 + I3) + 1e-9


def test_decompose_over_the_work_budget_raises_before_it_scans(monkeypatch):
    b = bset_xlogx(2000)
    work = 4 * (2000 - b.n_min + 1)         # M phase terms per index
    monkeypatch.setattr(expsum, "DEFAULT_WORK_BUDGET", work)
    decompose_I(b, 0.25, M=4)

    def no_scan(lo, hi, run):
        raise AssertionError("scan started")

    monkeypatch.setattr(expsum, "DEFAULT_WORK_BUDGET", work - 1)
    monkeypatch.setattr(expsum, "index_chunks", no_scan)
    with pytest.raises(CapacityError, match=f"I1 needs {work} phase terms"):
        decompose_I(b, 0.25, M=4)


def test_zero_window_kills_I1():
    h = xlogx()
    spec = SetSpec("frac_plus", h, h, 3000)
    stub = SparseSet(spec, np.empty(0, dtype=np.int64), n_min=3,
                     phi1=InverseFn(h), psi=ConstPsi(0.0, n_min=3))
    I1, I2, I3 = decompose_I(stub, 0.25, M=16)
    assert I1 == 0
    assert I2 == I3  # psi == 0 makes both envelopes identical


def test_recipe_M_keeps_combined_error_small():
    h = xlogx()
    phi = InverseFn(h)
    spec = SetSpec("frac_plus", h, h, 10**4)
    b = build_frac_set(spec)
    delta = delta_from_margin(admissibility_margin(h.c, h.c))
    M = truncation_M(b.spec.N, phi, delta)
    I1, I2, I3 = decompose_I(b, float(golden_xis(1)[0]), M=M)
    combined = abs(I1) + I2 + I3
    scale = phi.invert(float(b.spec.N)) * b.spec.N ** (-delta)
    assert combined <= 50 * scale


@pytest.mark.parametrize("consumer", ["decompose_I", "vdc_sum", "member_frac",
                                      "member_floor_characterization"])
def test_consumers_solve_each_index_once(consumer, monkeypatch):
    # h2 equal to h1 by value only: the window's InverseFn is another object
    N = 2**13
    b = bset_xlogx(N)
    psi = PsiFn(InverseFn(xlogx()))
    n = np.arange(psi.n_min, N + 1, dtype=np.float64)
    run = {
        "decompose_I": lambda: decompose_I(dataclasses.replace(b, psi=psi),
                                           0.3, M=2),
        "vdc_sum": lambda: vdc_sum(3, 1, 0.3, psi.n_min, N, b.phi1, psi),
        "member_frac": lambda: member_frac(n, b.phi1, psi),
        "member_floor_characterization":
            lambda: member_floor_characterization(n, b.phi1, psi),
    }[consumer]
    expected = run()
    points = []
    pair = InverseFn.pair

    def counting(phi, y):
        points.append(np.size(y))
        return pair(phi, y)

    monkeypatch.setattr(InverseFn, "pair", counting)
    got = run()
    assert sum(points) <= 1.05 * n.size
    assert np.array_equal(np.asarray(got), np.asarray(expected))
