import math
import tracemalloc

import numpy as np
import pytest

from majorantlab import ConvergenceError, RegVaryFn, SlowlyVaryingSpec
from majorantlab.majorant import p_threshold
from majorantlab.expsum import dirichlet_sum
from majorantlab.sparseset import SetSpec, build_frac_set
from majorantlab.sweeps import derive_seed, fit_loglog_slope
from majorantlab import trigpoly
from majorantlab.trigpoly import (
    GRID_CAP_DEFAULT,
    SPLIT_AT,
    DiscreteMeasure,
    QuadratureResult,
    TrigPoly,
    _coset_walker,
    _first_grid_max,
    _grid_dft,
    _grid_length,
    _lp_norm_bounds,
    even_p_oracle,
    extension_poly,
    fourier_of_measure,
    fourier_sup_of_difference,
    l2_norm_weighted,
    lower_bound_lowfreq,
    lp_norm,
    measure_mu,
    measure_nu,
    restriction_ratio_max,
    restriction_sweep,
    ttstar_apply,
)


def rng():
    return np.random.default_rng(20240817)


def random_poly(r, size=24, degree=4096):
    support = np.sort(r.choice(degree + 1, size=size, replace=False))
    coeffs = r.standard_normal(size) + 1j * r.standard_normal(size)
    return TrigPoly(support, coeffs)


def bset_xlogx(N):
    h = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    return build_frac_set(SetSpec("frac_plus", h, h, N))


# ---------------------------------------------------------------- lp_norm


def test_parseval_small():
    r = rng()
    for _ in range(25):
        P = random_poly(r)
        got = lp_norm(P, 2.0)
        assert got.value == pytest.approx(P.l2_coeff_norm(), abs=1e-10)
        assert got.refinement_error == 0.0


def test_two_term_fourth_norm():
    P = TrigPoly([1, 2], [1.0, 1.0])
    assert lp_norm(P, 4.0).value == pytest.approx(6 ** 0.25, abs=1e-10)


def test_single_term_any_p():
    P = TrigPoly([5], [0.3 - 0.4j])
    for p in (1.0, 2.5, 3.7, 6.0):
        assert lp_norm(P, p).value == pytest.approx(0.5, abs=1e-9)


def test_norm_monotone_in_p():
    r = rng()
    for _ in range(5):
        P = random_poly(r, size=12, degree=256)
        vals = [lp_norm(P, p).value for p in (2.0, 3.0, 4.0, 6.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_modulation_invariance():
    r = rng()
    P = random_poly(r, size=10, degree=300)
    Q = TrigPoly(P.support + 37, P.coeffs)
    for p in (2.0, 3.0, 4.0):
        assert lp_norm(Q, p).value == pytest.approx(lp_norm(P, p).value, rel=1e-7)


def test_unimodular_scaling_invariance():
    r = rng()
    P = random_poly(r, size=10, degree=300)
    Q = TrigPoly(P.support, P.coeffs * np.exp(0.77j))
    for p in (2.0, 3.0):
        assert lp_norm(Q, p).value == pytest.approx(lp_norm(P, p).value, rel=1e-12)


def test_grid_cap_failure_carries_values():
    P = TrigPoly([0, 1, 3], [1.0, 1.0, -1.0])
    with pytest.raises(ConvergenceError) as err:
        lp_norm(P, 3.0, tol=1e-12, cap=64)
    assert err.value.last is not None


@pytest.mark.parametrize("p", [float("inf"), float("-inf"), float("nan")])
def test_lp_norm_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must be finite"):
        lp_norm(TrigPoly([0, 1, 3], [1.0, 1.0, 1.0]), p)


def doubling_reference(P, p, tol, cap=GRID_CAP_DEFAULT):
    """The plain doubling rule: each grid sampled anew by one FFT of its
    full length, the mean of |P|^p taken over it."""
    K = 8 * _grid_length(P.degree)
    even = p == int(p) and int(p) % 2 == 0
    prev = None
    while True:
        value = float(np.mean(np.abs(P.grid_values(K)) ** p) ** (1.0 / p))
        if even and K > p * P.degree:
            return QuadratureResult(value, K, 0.0)
        if prev is not None:
            rel = abs(value - prev) / max(value, 1e-300)
            if rel < tol:
                return QuadratureResult(value, K, rel)
        if 2 * K > cap:
            raise ConvergenceError("reference did not stabilize",
                                   last=value, previous=prev)
        prev = value
        K *= 2


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.2, 5.0])
def test_coset_refinement_matches_doubling_reference(p, tol):
    r = np.random.default_rng(derive_seed(8, int(10 * p)))
    for size, degree in ((3, 7), (12, 200), (40, 3000)):
        P = random_poly(r, size=size, degree=degree)
        got, ref = lp_norm(P, p, tol=tol), doubling_reference(P, p, tol)
        assert got.grid_size == ref.grid_size
        assert got.value == pytest.approx(ref.value, rel=1e-13)
        assert got.refinement_error == pytest.approx(ref.refinement_error,
                                                     rel=0, abs=1e-13)


def test_coset_refinement_capped_matches_doubling_reference():
    P = random_poly(np.random.default_rng(81), size=12, degree=200)
    with pytest.raises(ConvergenceError) as got:
        lp_norm(P, 2.5, tol=1e-12, cap=1 << 13)
    with pytest.raises(ConvergenceError) as ref:
        doubling_reference(P, 2.5, 1e-12, cap=1 << 13)
    assert got.value.last == pytest.approx(ref.value.last, rel=1e-13)
    assert got.value.previous == pytest.approx(ref.value.previous, rel=1e-13)


@pytest.mark.parametrize("p, degree", [(2.5, 200), (4.0, 200),
                                       (2.5, SPLIT_AT - 5)],
                         ids=["2.5", "4.0", "2.5-split"])
def test_lp_norm_ffts_sample_each_point_once(monkeypatch, p, degree):
    # every coset is one transform of the smallest grid above the degree:
    # one FFT of length M below SPLIT_AT, else FFTs along axis 1 then
    # axis 0 of an (M1, M2) array; together they cover the final grid once
    P = random_poly(np.random.default_rng(82), size=12, degree=degree)
    calls = []
    ifft = np.fft.ifft

    def recording_ifft(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("axis", -1)))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording_ifft)
    got = lp_norm(P, p, tol=1e-10)
    M = _grid_length(P.degree)
    assert (M < SPLIT_AT) == (degree == 200)
    if M < SPLIT_AT:
        cosets = calls
        assert set(calls) == {((M,), -1)}
    else:
        M1 = 1 << (M.bit_length() - 1) // 2
        cosets = calls[::2]
        assert calls == [((M1, M // M1), 1), ((M1, M // M1), 0)] * len(cosets)
    # even p stops on the start grid; p = 2.5 doubles at least once
    assert len(cosets) == 8 if p == 4.0 else len(cosets) > 8
    assert len(cosets) * M == got.grid_size


def full_walk_reference(P, p, tol):
    """lp_norm's rule with every coset of every grid walked at weight 1,
    as for complex coefficients."""
    M = _grid_length(P.degree)
    K = 8 * M
    walk = _coset_walker(P.support, M)
    power = np.zeros(M)
    even = p == int(p) and int(p) % 2 == 0
    new, prev = range(8), None
    while True:
        for vals in walk([P.coeffs], K, new):
            power += np.abs(vals) ** p
        value = float((np.sum(power) / K) ** (1.0 / p))
        if even and K > p * P.degree:
            return QuadratureResult(value, K, 0.0)
        if prev is not None and abs(value - prev) / value < tol:
            return QuadratureResult(value, K, abs(value - prev) / value)
        prev, K = value, 2 * K
        new = range(1, K // M, 2)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 4.2])
def test_real_coefficients_walk_half_the_cosets(p):
    # |P(-x)| = |P(x)|: the half walk stops on the same grid as the full
    # one, with the same value up to the order of the sums
    r = np.random.default_rng(derive_seed(28, int(10 * p)))
    for size, degree in ((3, 7), (40, 3000), (400, SPLIT_AT + 700)):
        support = np.sort(r.choice(degree + 1, size=size, replace=False))
        support[-1] = degree
        P = TrigPoly(support, r.standard_normal(size))
        got, ref = lp_norm(P, p), full_walk_reference(P, p, 1e-8)
        assert got.grid_size == ref.grid_size
        assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0)


@pytest.mark.parametrize("imag, transforms", [(0.0, 5), (1e-300, 8)],
                         ids=["real", "complex"])
def test_any_imaginary_part_takes_the_full_walk(monkeypatch, imag, transforms):
    # p = 4 stops on the first grid of 8 cosets: 0..4 of them for real
    # coefficients, all 8 once one coefficient has an imaginary part
    r = np.random.default_rng(83)
    support = np.sort(r.choice(201, size=12, replace=False))
    coeffs = r.standard_normal(12).astype(np.complex128)
    coeffs[3] += 1j * imag
    calls = []
    ifft = np.fft.ifft

    def counting_ifft(a, *args, **kwargs):
        calls.append(a.shape)
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    got = lp_norm(TrigPoly(support, coeffs), 4.0)
    assert got.grid_size == 8 * _grid_length(int(support[-1]))
    assert len(calls) == transforms


def test_coset_plan_weights_cover_every_coset():
    # each walked coset stands for itself and, at weight 2, its mirror
    for n in (8, 16, 64):
        for cosets in (range(n), range(1, n, 2)):
            plan = trigpoly._coset_plan(cosets, n, True)
            assert sum(w for _, w in plan) == len(cosets)
            covered = {r for r, _ in plan} | {(n - r) % n for r, _ in plan}
            assert covered == set(cosets)
        assert (trigpoly._coset_plan(range(n), n, False)
                == [(r, 1) for r in range(n)])


@pytest.mark.parametrize("M", [1 << 10, SPLIT_AT, 4 * SPLIT_AT])
def test_grid_dft_equals_direct_sums(M):
    # values and at_support against the sums they stand for, with exact
    # integer phases n j mod M
    r = np.random.default_rng(86)
    support = np.sort(r.choice(M, size=30, replace=False))
    coeffs = r.standard_normal(30) + 1j * r.standard_normal(30)
    values, at_support = _grid_dft(support, M)
    j = np.arange(M)
    cis = np.exp(2j * np.pi * ((support[:, None] * j[None, :]) % M) / M)
    want = coeffs @ cis
    got = values(coeffs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    grid = r.standard_normal(M) + 1j * r.standard_normal(M)
    want = cis @ grid
    got = at_support(grid.copy())
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [SPLIT_AT, 4 * SPLIT_AT, 1 << 17])
def test_grid_dft_twiddle_is_the_outer_product_formula(M):
    # the twiddle built row by row in place: values and at_support are bit
    # for bit those of the full-size np.outer formula
    r = np.random.default_rng(89)
    support = np.sort(r.choice(M, size=50, replace=False))
    coeffs = r.standard_normal(50) + 1j * r.standard_normal(50)
    grid = r.standard_normal(M) + 1j * r.standard_normal(M)
    M1 = 1 << (M.bit_length() - 1) // 2
    M2 = M // M1
    twiddle = np.exp((2j * np.pi / M) * np.outer(np.arange(M1), np.arange(M2)))
    at = (support % M1) * M2 + support // M1
    want = np.zeros((M1, M2), dtype=np.complex128)
    want.reshape(M)[at] = coeffs
    want = np.fft.ifft(np.fft.ifft(want, axis=1, norm="forward") * twiddle,
                       axis=0, norm="forward").reshape(M)
    want_at = np.fft.ifft(np.fft.ifft(grid.reshape(M1, M2), axis=0,
                                      norm="forward") * twiddle,
                          axis=1, norm="forward").reshape(M)[at]
    values, at_support = _grid_dft(support, M)
    assert np.array_equal(values(coeffs), want)
    assert np.array_equal(at_support(grid.copy()), want_at)


@pytest.mark.parametrize("p", [2.5, 4.2])
def test_lp_norm_split_transform_matches_one_fft(monkeypatch, p):
    # a polynomial whose cosets have M >= SPLIT_AT points, once through
    # the split transform and once with SPLIT_AT moved above M
    P = random_poly(np.random.default_rng(87), size=60, degree=3 * SPLIT_AT // 4)
    assert _grid_length(P.degree) >= SPLIT_AT
    split = lp_norm(P, p, tol=1e-10)
    monkeypatch.setattr(trigpoly, "SPLIT_AT", 1 << 40)
    whole = lp_norm(P, p, tol=1e-10)
    assert split.grid_size == whole.grid_size
    assert split.value == pytest.approx(whole.value, rel=1e-13)


def test_coset_walker_matches_out_of_place_ifft():
    # one buffer serves every walk, cosets outer and rows inner; each
    # yielded coset still equals a fresh out-of-place transform of its
    # turned row
    r = np.random.default_rng(83)
    P = random_poly(r, size=40, degree=3000)
    rows = [P.coeffs, r.standard_normal(40) + 1j * r.standard_normal(40)]
    M = _grid_length(P.degree)
    walk = _coset_walker(P.support, M)
    for K, cosets in ((8 * M, [0, 3]), (32 * M, [17]), (8 * M, [3])):
        got = walk(rows, K, cosets)
        for c in cosets:
            for row in rows:
                dense = np.zeros(M, dtype=np.complex128)
                turn = ((P.support * c) % K) / K
                dense[P.support] = row * np.exp(2j * np.pi * turn)
                assert np.array_equal(next(got),
                                      np.fft.ifft(dense, norm="forward"))
        assert next(got, None) is None


def test_grid_length_is_the_smallest_power_of_two_above_the_degree():
    # and 8 times it is the first grid of the plain doubling rule, the
    # smallest power of two >= 8 (D + 1)
    degrees = list(range(1100)) + [(1 << b) + d for b in range(11, 24)
                                   for d in (-1, 0, 1)]
    for D in degrees:
        M = _grid_length(D)
        assert M & (M - 1) == 0 and M > D >= M // 2
        K = 8
        while K < 8 * (D + 1):
            K *= 2
        assert 8 * M == K


@pytest.mark.parametrize("K", [1 << 8, 1 << 12, 1 << 16])
def test_grid_values_equal_scaled_backward_ifft(K):
    P = random_poly(np.random.default_rng(84), size=40, degree=200)
    assert np.array_equal(P.grid_values(K), np.fft.ifft(P.dense(K)) * K)


def test_empty_polynomial():
    P = TrigPoly(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))
    assert lp_norm(P, 3.0).value == 0.0


def test_evaluate_matches_grid():
    r = rng()
    P = random_poly(r, size=8, degree=100)
    K = 512
    grid = P.grid_values(K)
    direct = P.evaluate(np.arange(K) / K)
    assert np.allclose(grid, direct, atol=1e-9)


# ---------------------------------------------------------- even-p oracle


def test_oracle_trivial_p2():
    r = rng()
    P = random_poly(r, size=16)
    assert even_p_oracle(P, 2) == pytest.approx(P.l2_coeff_norm() ** 2, rel=1e-12)


def test_oracle_pair_count():
    P = TrigPoly([1, 2], [1.0, 1.0])
    # r(2)^2 + r(3)^2 + r(4)^2 = 1 + 4 + 1
    assert even_p_oracle(P, 4) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("p", [4, 6])
def test_oracle_cross_validates_quadrature(p):
    r = rng()
    for _ in range(8):
        P = random_poly(r, size=8, degree=64)
        via_fft = lp_norm(P, float(p)).value
        via_conv = even_p_oracle(P, p) ** (1.0 / p)
        assert via_fft == pytest.approx(via_conv, rel=1e-8)


# ------------------------------------------------------ low-freq lower bound


def test_lowfreq_singleton_exact():
    N = 64
    for p in (2.0, 3.0):
        got = lower_bound_lowfreq([0], p, N=N)
        assert got == pytest.approx((1.0 / (50 * N)) ** (1.0 / p), rel=1e-10)


def test_lowfreq_cosine_floor():
    r = rng()
    N = 500
    A = np.sort(r.choice(np.arange(1, N + 1), size=40, replace=False))
    for p in (2.0, 3.0):
        got = lower_bound_lowfreq(A, p, N=N)
        assert got >= 0.9 * len(A) * (2.0 / (100 * N)) ** (1.0 / p)


def test_lowfreq_full_interval_matches_dirichlet_kernel():
    N = 256
    p = 3.0
    got = lower_bound_lowfreq(np.arange(1, N + 1), p, N=N)
    # closed-form integrand |sin(pi N xi)/sin(pi xi)|^p on the same window
    half = 1.0 / (100.0 * N)
    xi = np.linspace(-half, half, 20001)
    with np.errstate(invalid="ignore"):
        kernel = np.abs(np.sin(np.pi * N * xi) / np.sin(np.pi * xi))
    kernel[np.isnan(kernel)] = N
    ref = (np.trapezoid(kernel ** p, xi)) ** (1.0 / p)
    assert got == pytest.approx(ref, rel=1e-4)


def lowfreq_by_exponentials(A, p, N):
    """lower_bound_lowfreq's rule with the sum taken term by term."""
    half = 1.0 / (100.0 * N)
    x, w = np.polynomial.legendre.leggauss(64)

    def integral(num_panels):
        edges = np.linspace(-half, half, num_panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            xi = 0.5 * (b - a) * x + 0.5 * (a + b)
            S = np.exp(2j * np.pi * xi[:, None] * A[None, :]).sum(axis=1)
            total += 0.5 * (b - a) * float(w @ np.abs(S) ** p)
        return total

    v1, v2 = integral(8), integral(16)
    if abs(v2 - v1) > 1e-8 * abs(v2):
        v2 = integral(32)
    return v2 ** (1.0 / p)


@pytest.mark.parametrize("N, size", [(300, 1), (500, 40), (2048, 300),
                                     (8192, 1200)])
def test_lowfreq_moments_match_exponential_sums(N, size):
    r = np.random.default_rng(N)
    A = np.sort(r.choice(np.arange(1, N + 1), size=size, replace=False))
    for p in (2.0, 2.5, 4.2):
        assert lower_bound_lowfreq(A, p, N=N) == pytest.approx(
            lowfreq_by_exponentials(A, p, N), rel=1e-13)


# ---------------------------------------------------------------- measures


def test_nu_total_mass_one():
    assert measure_nu(1000).total_mass == pytest.approx(1.0, rel=1e-12)


def test_mu_total_mass_near_one():
    b = bset_xlogx(10**4)
    mu = measure_mu(b)
    assert mu.total_mass == pytest.approx(1.0, abs=0.05)
    assert fourier_of_measure(mu, [0.0])[0] == pytest.approx(mu.total_mass,
                                                             rel=1e-12)


def test_nu_fourier_matches_closed_form():
    N = 4096
    nu = measure_nu(N)
    xis = [0.1, 0.37, 0.625]
    for xi, got in zip(xis, fourier_of_measure(nu, xis)):
        assert got == pytest.approx(dirichlet_sum(N, xi) / N, abs=1e-12)


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1, 2]), np.array([0.5, -0.5]))


def test_mu_minus_nu_sup_decays():
    h = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    sups = []
    Ns = [2**12, 2**14, 2**16]
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        sup, _ = fourier_sup_of_difference(measure_mu(b), N)
        sups.append(sup)
    assert sups[-1] < sups[0]


def test_mu_minus_nu_sup_matches_one_full_grid():
    # the 8 cosets cover lp_norm's first grid: one FFT of its full length
    # finds the same maximum
    N = 2**12
    mu, nu = measure_mu(bset_xlogx(N)), measure_nu(N)
    sup, K = fourier_sup_of_difference(mu, N)
    assert K == 8 * _grid_length(N)
    dense = np.zeros(K, dtype=np.complex128)
    np.add.at(dense, mu.atoms, mu.masses)
    np.add.at(dense, nu.atoms, -nu.masses)
    assert sup == pytest.approx(np.max(np.abs(np.fft.ifft(dense) * K)),
                                rel=1e-13)


def traced_peak_mib(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_restriction_quantities_keep_to_one_grid_of_memory():
    # N = 2^16: the mu - nu sup keeps one buffer of M = 2^16 points, its
    # twiddle and BLOCK-sized fill arrays; the ratio keeps its bounds
    # matrix and one quadrature's buffer, twiddle, |P| and power sum
    N = 2**16
    mu = measure_mu(bset_prop2(N))
    # numpy imports numpy.random on first use, about 0.7 MiB of module
    # objects that are no part of the ratio's working set
    np.random.default_rng(0)
    assert traced_peak_mib(lambda: fourier_sup_of_difference(mu, N)) <= 3.5
    assert traced_peak_mib(lambda: restriction_ratio_max(mu, N, 4.2, 16, 7)) <= 4.5


def test_mu_minus_nu_sup_keeps_to_one_half_length_buffer_at_2_18():
    # the transform length is N, not 2 N: 4 MiB of buffer, 4 MiB of
    # twiddle and BLOCK-sized fill arrays
    N = 2**18
    mu = measure_mu(bset_prop2(N))
    assert traced_peak_mib(lambda: fourier_sup_of_difference(mu, N)) <= 12.0


def two_measure_sup(mu, N):
    """The sup on lp_norm's first grid from the dense coefficients 0..N of
    mu - nu_N, both measures added in, all 8 cosets walked."""
    nu = measure_nu(N)
    coeff = np.zeros(N + 1, dtype=np.complex128)
    np.add.at(coeff, mu.atoms, mu.masses)
    np.add.at(coeff, nu.atoms, -nu.masses)
    top, _, K = _first_grid_max(np.arange(N + 1), [coeff], 8, 1)
    return float(top[0]), K


def test_mu_minus_nu_sup_equals_the_two_measure_sum():
    # the shifted half-length transform on half the cosets: the same grid,
    # the value up to rounding; the last case has atoms at 0 and N (s = 0)
    cases = [(measure_mu(bset_xlogx(N)), N) for N in (2**9, 2**12, 3000)]
    atoms = np.array([0, 5, 17, 300, 1000, 1024])
    cases.append((DiscreteMeasure(atoms, np.linspace(0.1, 0.3, 6)), 1024))
    for mu, N in cases:
        sup, K = fourier_sup_of_difference(mu, N)
        want, want_K = two_measure_sup(mu, N)
        assert K == want_K
        assert sup == pytest.approx(want, rel=1e-14)


def test_mu_minus_nu_sup_rejects_atoms_outside_0_to_N():
    for atoms in ([3, 1025], [-1, 3]):
        mu = DiscreteMeasure(np.array(atoms), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="atoms"):
            fourier_sup_of_difference(mu, 1024)


# ------------------------------------------------------------- operators


def test_extension_outside_support_is_zero():
    nu = measure_nu(100)
    f = TrigPoly([150, 170], [1.0, 1.0])
    out = ttstar_apply(f, nu)
    assert len(out.support) == 0


def test_ttstar_with_uniform_measure_is_scaled_dirichlet():
    N = 64
    nu = measure_nu(N)
    f = TrigPoly(np.arange(1, N + 1), np.ones(N))
    out = ttstar_apply(f, nu)
    assert np.array_equal(out.support, np.arange(1, N + 1))
    assert np.allclose(out.coeffs, 1.0 / N)


def test_ttstar_plancherel_contraction():
    r = rng()
    N = 128
    nu = measure_nu(N)
    P = random_poly(r, size=20, degree=200)
    out = ttstar_apply(P, nu)
    assert out.l2_coeff_norm() <= P.l2_coeff_norm() / N + 1e-15


def test_apply_extension_values():
    b = bset_xlogx(2000)
    mu = measure_mu(b)
    f = np.ones(len(mu.atoms), dtype=np.complex128)
    xi = np.array([0.0])
    got = extension_poly(f, mu).evaluate(xi)
    assert got[0] == pytest.approx(mu.total_mass, rel=1e-12)


def test_restriction_ratio_max_bounded_small():
    mu = measure_mu(bset_xlogx(2**10))
    ratio = restriction_ratio_max(mu, 2**10, p=3.0, trials=4, seed=11)
    assert np.isfinite(ratio) and ratio > 0
    assert restriction_ratio_max(mu, 2**10, p=3.0, trials=4, seed=11) == ratio


def test_restriction_ratio_max_rejects_an_empty_set():
    # B_1 has no member, so no test function has a finite ratio
    b = bset_prop2(1)
    assert len(b) == 0
    with pytest.raises(ValueError, match="empty"):
        restriction_ratio_max(measure_mu(b), 1, p=4.2, trials=2)


def bset_prop2(N):
    """The restriction workload's family: h1 = x log x, h2 = x^1.1 log x."""
    h1 = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    h2 = RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))
    return build_frac_set(SetSpec("frac_plus", h1, h2, N))


def restriction_ratios_full(bset, p, trials, seed, tol=1e-8):
    """Every trial's ratio, each from its own quadrature: the loop that
    restriction_ratio_max prunes."""
    mu = measure_mu(bset)
    N = bset.spec.N
    out = []
    for t in range(trials):
        if t == 0:
            f = np.ones(len(mu.atoms), dtype=np.complex128)
        else:
            r = np.random.default_rng(derive_seed(derive_seed(seed, N), t))
            f = (r.standard_normal(len(mu.atoms))
                 + 1j * r.standard_normal(len(mu.atoms))) / math.sqrt(2.0)
        num = lp_norm(extension_poly(f, mu), p, tol=tol).value * N ** (1.0 / p)
        out.append(num / l2_norm_weighted(f, mu))
    return out


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 4.2, 5.0, 6.0, 7.5, 9.0])
def test_lp_norm_bounds_hold(p):
    # random polynomials, several rows per support, with the degree at
    # M - 1 (the loosest Bernstein factor) or anywhere up to 4096; and a
    # Dirichlet kernel of degree M - 1 peaking midway between grid points
    r = rng()
    for top in (4095, 1023, None):
        for _ in range(4):
            if top is None:
                support = np.sort(r.choice(4097, size=24, replace=False))
            else:
                support = np.append(np.sort(r.choice(top, size=23,
                                                     replace=False)), top)
            rows = r.standard_normal((3, 24)) + 1j * r.standard_normal((3, 24))
            bounds = _lp_norm_bounds(support, rows, p)
            for row, bound in zip(rows, bounds):
                got = lp_norm(TrigPoly(support, row), p, tol=1e-10).value
                assert bound * (1 + 1e-12) >= got
    D = 2047
    support = np.arange(D + 1)
    half_cell = 1.0 / (16 * _grid_length(D))
    rows = np.exp(-2j * np.pi * support * half_cell)[None, :]
    got = lp_norm(TrigPoly(support, rows[0]), p, tol=1e-10).value
    assert _lp_norm_bounds(support, rows, p)[0] * (1 + 1e-12) >= got
    if p == 2.0:
        # tight at p = 2: the bound is the l2 norm of the coefficients
        assert _lp_norm_bounds(support, rows, p)[0] == pytest.approx(got, rel=1e-12)


@pytest.mark.parametrize("p", [4, 6, 8])
def test_lp_norm_bounds_exact_at_even_p(p):
    # at p = 2k the sup's exponent is 0 and the bound is the exact moment
    # on a grid of more than k D points
    r = np.random.default_rng(61)
    for top in (1023, 1500):
        support = np.append(np.sort(r.choice(top, size=19, replace=False)), top)
        rows = r.standard_normal((2, 20)) + 1j * r.standard_normal((2, 20))
        bounds = _lp_norm_bounds(support, rows, p)
        for row, bound in zip(rows, bounds):
            exact = even_p_oracle(TrigPoly(support, row), p) ** (1 / p)
            assert bound == pytest.approx(exact, rel=1e-12)


def test_sup_bound_covers_a_peak_between_grid_points():
    # the Dirichlet kernel of degree M - 1 turned to peak midway between
    # two points of the first grid: the grid max misses the sup D + 1,
    # and the Bernstein factor (p = inf in _lp_norm_bounds) recovers it
    D = 2047
    support = np.arange(D + 1)
    rows = np.exp(-2j * np.pi * support / (16 * _grid_length(D)))[None, :]
    top, _, _ = _first_grid_max(support, rows, 8, 1)
    assert top[0] < D + 1 <= _lp_norm_bounds(support, rows, math.inf)[0]


def test_first_grid_max_per_row_matches_one_full_grid():
    r = np.random.default_rng(88)
    support = np.sort(r.choice(3000, size=40, replace=False))
    rows = r.standard_normal((3, 40)) + 1j * r.standard_normal((3, 40))
    top, _, K = _first_grid_max(support, rows, 8, 1)
    assert K == 8 * _grid_length(int(support[-1]))
    for row, got in zip(rows, top):
        full = TrigPoly(support, row).grid_values(K)
        assert got == pytest.approx(np.max(np.abs(full)), rel=1e-13)


@pytest.mark.parametrize("p", [p_threshold(1.0, 1.1) + 0.7, 2.0, 1.5],
                         ids=["4.2", "2", "1.5"])
@pytest.mark.parametrize("level", [10, 11, 12])
def test_restriction_ratio_max_equals_full_loop(p, level):
    # bit for bit the maximum of a quadrature for every trial; at p = 2
    # the bound is tight and random f win, so skipping meets its edge
    b = bset_prop2(2**level)
    winners = []
    for seed in (7, 0, 3):
        full = restriction_ratios_full(b, p, trials=16, seed=seed)
        got = restriction_ratio_max(measure_mu(b), 2**level, p, trials=16,
                                    seed=seed)
        assert got == max(full)
        winners.append(int(np.argmax(full)))
    if p == 2.0:
        assert any(w > 0 for w in winners)


def test_restriction_sweep_rows_are_the_direct_calls():
    # per N: the ratio row, then the sup row, both on one mu_N; one
    # exponent per quantity, and the same rows on two workers
    p = p_threshold(1.0, 1.1) + 0.5
    Ns = [2**10, 2**11, 2**12]
    rows = restriction_sweep(bset_prop2, p, Ns, trials=4, seed=2)
    assert [r.quantity for r in rows] == [
        "restriction_ratio_max", "mu_nu_fourier_sup"] * 3
    for N, ratio, sup in zip(Ns, rows[0::2], rows[1::2]):
        mu = measure_mu(bset_prop2(N))
        assert ratio.value == restriction_ratio_max(mu, N, p, trials=4, seed=2)
        assert (sup.value, sup.params["grid"]) == fourier_sup_of_difference(mu, N)
    for same in (rows[0::2], rows[1::2]):
        slope = fit_loglog_slope(Ns, [r.value for r in same])
        assert all(r.exponent == slope for r in same)
    two = restriction_sweep(bset_prop2, p, Ns, trials=4, seed=2, workers=2)
    assert ([(r.value, r.exponent, r.params) for r in two]
            == [(r.value, r.exponent, r.params) for r in rows])


def test_restriction_ratio_max_runs_one_quadrature(monkeypatch):
    # on the workload's family (criterion 9's set at p = 4.2, seed 7)
    # every random f is bounded below the all-ones ratio, so only
    # all-ones gets its quadrature
    p = p_threshold(1.0, 1.1) + 0.7
    calls = []
    lp = trigpoly.lp_norm

    def counting_lp_norm(P, *args, **kwargs):
        calls.append(len(P.support))
        return lp(P, *args, **kwargs)

    monkeypatch.setattr(trigpoly, "lp_norm", counting_lp_norm)
    for level in (10, 11, 13):
        mu = measure_mu(bset_prop2(2**level))
        calls.clear()
        ratio = restriction_ratio_max(mu, 2**level, p, trials=16, seed=7)
        assert len(calls) == 1, level
        ones = np.ones(len(mu.atoms), dtype=np.complex128)
        assert ratio == (lp(extension_poly(ones, mu), p).value
                         * (2**level) ** (1 / p) / l2_norm_weighted(ones, mu))


def test_weighted_l2_norm():
    m = DiscreteMeasure(np.array([2, 5]), np.array([0.25, 0.75]))
    f = np.array([2.0, 2.0j])
    assert l2_norm_weighted(f, m) == pytest.approx(2.0, rel=1e-12)
