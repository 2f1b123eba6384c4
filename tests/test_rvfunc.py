import math

import mpmath
import numpy as np
import pytest

from majorantlab import DomainError, InverseFn, PsiFn, RegVaryFn, SlowlyVaryingSpec
from majorantlab import rvfunc
from majorantlab.rvfunc import BLOCK, CHUNK, index_chunks, pairs_and_window


def xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


def xlog2x():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=2.0))


def x15():
    return RegVaryFn(1.5, SlowlyVaryingSpec("constant_one"))


FAMILIES = [
    ("xlogx", lambda: xlogx()),
    ("xlog2x", lambda: xlog2x()),
    ("x15", lambda: x15()),
    ("x12_log", lambda: RegVaryFn(1.2, SlowlyVaryingSpec("log_power", B=1.0))),
    ("exp_log_pow", lambda: RegVaryFn(1.0, SlowlyVaryingSpec("exp_log_power", B=1.0, C=0.5))),
    ("iterlog2", lambda: RegVaryFn(1.0, SlowlyVaryingSpec("iterated_log", m=2))),
]


# ---------------------------------------------------------------- eval_h


def test_h_at_e_is_e():
    # log e = 1, so h(e) = e * 1
    assert xlogx().value(math.e) == pytest.approx(math.e, rel=1e-15)


def test_pure_power_value():
    assert x15().value(4.0) == pytest.approx(8.0, rel=1e-15)


def test_exp_log_power_first_derivative_against_finite_difference():
    h = RegVaryFn(1.0, SlowlyVaryingSpec("exp_log_power", B=1.0, C=0.5))
    x = 100.0
    # independent closed form: h'(x) = h(x) (1 + theta(x)) / x, theta = B C (log x)^(C-1)
    theta = 1.0 * 0.5 * math.log(x) ** (-0.5)
    expected = h.value(x) * (1.0 + theta) / x
    assert h.deriv(x, 1) == pytest.approx(expected, rel=1e-13)
    step = x * 1e-6
    fd = (h.value(x + step) - h.value(x - step)) / (2 * step)
    assert h.deriv(x, 1) == pytest.approx(fd, rel=1e-8)


# further slowly varying factors, as h = x * ell, for the derivative check
ELL_FAMILIES = [
    ("x_log15", lambda: RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.5))),
    ("x_exp_log_pow", lambda: RegVaryFn(
        1.0, SlowlyVaryingSpec("exp_log_power", B=0.7, C=0.3))),
    ("x_iterlog2", lambda: RegVaryFn(1.0, SlowlyVaryingSpec("iterated_log", m=2))),
]


@pytest.mark.parametrize("name,make", FAMILIES + ELL_FAMILIES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_h_derivatives_match_finite_differences(name, make, order):
    h = make()
    xs = np.exp(np.linspace(np.log(4 * h.x0), np.log(1e9), 100))
    step = xs * 1e-5
    fd = (h.deriv(xs + step, order - 1) - h.deriv(xs - step, order - 1)) / (2 * step)
    got = h.deriv(xs, order)
    scale = np.maximum(np.abs(fd), np.abs(got))
    assert np.all(np.abs(got - fd) <= 1e-5 * scale + 1e-300)


@pytest.mark.parametrize("name,make", FAMILIES)
def test_h_convex_and_increasing(name, make):
    h = make()
    xs = np.exp(np.linspace(np.log(h.x0), np.log(1e12), 400))
    assert np.all(h.deriv(xs, 1) > 0)
    assert np.all(h.deriv(xs, 2) >= 0)


def test_domain_error_below_x0():
    h = xlogx()
    with pytest.raises(DomainError):
        h.value(1.0)
    with pytest.raises(DomainError):
        InverseFn(h).invert(0.5)


@pytest.mark.parametrize("c, ell, x0", [
    (1.0, SlowlyVaryingSpec("log_power", B=1.0), 2.0),
    # ell(2) > 0, but h'' < 0 at 2: the probe moves past ell's start
    (1.0, SlowlyVaryingSpec("exp_log_power", B=1.0, C=0.1), 4.0),
    (1.0, SlowlyVaryingSpec("iterated_log", m=2), 4.0),
    (1.0, SlowlyVaryingSpec("iterated_log", m=3), 16.0),
    (1.0, SlowlyVaryingSpec("iterated_log", m=4), 4194304.0),
], ids=["xlogx", "exp_log_power_C0.1", "iterlog2", "iterlog3", "iterlog4"])
def test_domain_start_is_the_first_increasing_convex_power_of_two(c, ell, x0):
    assert RegVaryFn(c, ell).x0 == x0


def test_domain_start_search_rejects_a_concave_h():
    # x^0.5 log x is concave from some point on, whatever the start
    with pytest.raises(ValueError, match="increasing and convex"):
        RegVaryFn(0.5, SlowlyVaryingSpec("log_power", B=1.0))


def test_overflow_error_on_huge_argument():
    h = x15()
    with pytest.raises(OverflowError):
        h.value(1e300)


def test_c1_requires_unbounded_ell():
    with pytest.raises(ValueError):
        RegVaryFn(1.0, SlowlyVaryingSpec("constant_one"))
    # degenerate identity is allowed for calibration when unchecked
    ident = RegVaryFn(1.0, SlowlyVaryingSpec("constant_one"), check=False)
    assert ident.value(7.0) == 7.0


# ---------------------------------------------------------------- invert


def test_invert_trivial_points():
    assert InverseFn(xlogx()).invert(math.e) == pytest.approx(math.e, rel=1e-14)
    assert InverseFn(x15()).invert(8.0) == pytest.approx(4.0, rel=1e-14)


def test_invert_against_pure_bisection():
    h = xlog2x()
    y = 1e6
    lo, hi = 2.0, 1e6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if h.value(mid) < y:
            lo = mid
        else:
            hi = mid
    assert InverseFn(h).invert(y) == pytest.approx(0.5 * (lo + hi), rel=1e-12)


@pytest.mark.parametrize("name,make", FAMILIES)
def test_round_trip_h_of_invert(name, make):
    h = make()
    phi = InverseFn(h)
    ys = np.exp(np.linspace(np.log(max(phi.y0, 1.0)), np.log(1e12), 1000))
    back = h.value(phi.invert(ys))
    assert np.all(np.abs(back - ys) <= 1e-12 * ys)


def test_invert_strictly_increasing():
    phi = InverseFn(xlogx())
    ys = np.exp(np.linspace(np.log(2.0), np.log(1e10), 500))
    xs = phi.invert(ys)
    assert np.all(np.diff(xs) > 0)


def test_pair_matches_high_precision_root():
    h = xlogx()
    phi = InverseFn(h)
    mpmath.mp.dps = 40
    for y in (1e6 + 0.5, 12345.0, 987654321.0):
        head, tail = phi.pair(y)
        root = mpmath.findroot(lambda x: x * mpmath.log(x) - y, head)
        err = abs((mpmath.mpf(head) + mpmath.mpf(tail)) - root)
        assert err < 1e-18 * y


# ------------------------------------------------------------- phi_deriv


def test_phi_derivs_power_rule():
    phi = InverseFn(x15())
    # phi(y) = y^(2/3)
    assert phi.deriv(8.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert phi.deriv(8.0, 2) == pytest.approx((2 / 3) * (-1 / 3) * 8 ** (-4 / 3), rel=1e-13)
    assert phi.deriv(8.0, 3) == pytest.approx(
        (2 / 3) * (-1 / 3) * (-4 / 3) * 8 ** (-7 / 3), rel=1e-12)


def test_phi_second_deriv_matches_finite_difference():
    phi = InverseFn(xlogx())
    y = 1e5
    step = y * 1e-4
    fd = (phi.invert(y + step) - 2 * phi.invert(y) + phi.invert(y - step)) / step**2
    assert phi.deriv(y, 2) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("name,make", FAMILIES)
def test_phi_third_deriv_ratio_band(name, make):
    h = make()
    phi = InverseFn(h)
    xs = np.exp(np.linspace(np.log(1e3), np.log(1e9), 60))
    ratio = xs**3 * np.abs(phi.deriv(xs, 3)) / phi.invert(xs)
    assert ratio.max() / ratio.min() < 10.0


# -------------------------------------------------------------- eval_psi


def test_psi_difference_value():
    psi = PsiFn(InverseFn(x15()))
    # phi2(y) = y^(2/3): psi(8) = 9^(2/3) - 4
    assert psi.value(8.0) == pytest.approx(9.0 ** (2 / 3) - 4.0, rel=1e-12)


def test_psi_derivative_mode_is_phi_prime():
    phi = InverseFn(xlogx())
    psi = PsiFn(phi, mode="derivative")
    x = float(psi.n_min + 10)
    assert psi.value(x) == phi.deriv(x, 1)


def test_psi_ratio_to_phi_prime_near_one():
    phi = InverseFn(xlogx())
    psi = PsiFn(phi)
    x = 1e6
    assert psi.value(x) / phi.deriv(x, 1) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("mode", ["difference", "derivative"])
def test_psi_sandwich(mode):
    psi = PsiFn(InverseFn(xlogx()), mode=mode)
    xs = np.exp(np.linspace(np.log(psi.n_min), np.log(1e9), 300))
    vals = psi.value(xs)
    assert np.all(vals > 0)
    assert np.all(vals <= 0.5)
    # n_min is the first such integer
    if psi.n_min > math.ceil(psi.phi2.y0):
        assert psi._raw(float(psi.n_min - 1)) > 0.5


def test_psi_domain_error():
    psi = PsiFn(InverseFn(xlogx()))
    with pytest.raises(DomainError):
        psi.value(psi.n_min - 1)


# ------------------------------------------------------ sigma1 estimate


def test_sigma1_constant_for_pure_power():
    phi = InverseFn(x15())
    vals = [phi.sigma1_hat(y) for y in (64.0, 640.0, 6400.0)]
    assert vals[0] == pytest.approx(2 / 9, rel=1e-12)
    assert max(vals) - min(vals) < 1e-12


def test_sigma1_doubling_property():
    phi = InverseFn(xlogx())
    r = phi.sigma1_hat(2e4) / phi.sigma1_hat(1e4)
    assert 0.5 <= r <= 2.0


def test_sigma1_slow_decay():
    # sigma1 decays slower than any power; at desk scale the epsilon = 0.2
    # floor holds with constant 1 (epsilon = 0.1 does not yet at 1e6)
    phi = InverseFn(xlogx())
    assert phi.sigma1_hat(1e6) >= 1e6 ** (-0.2)


# -------------------------------------------------------- serialization


def test_kv_round_trip():
    for _, make in FAMILIES:
        h = make()
        h2 = RegVaryFn.from_kv(h.to_kv())
        assert h2.c == h.c
        assert h2.x0 == h.x0
        assert h2.ell == h.ell
        xs = np.linspace(2 * h.x0, 1e6, 17)
        assert np.allclose(h2.value(xs), h.value(xs), rtol=0, atol=0)


def test_kv_parse_example():
    h = RegVaryFn.from_kv("family=log_power, B=1.0, c=1.0, x0=2")
    assert h.value(math.e) == pytest.approx(math.e, rel=1e-15)


@pytest.mark.parametrize("name,make", FAMILIES)
def test_value_longdouble_against_mpmath(name, make):
    h = make()
    rng = np.random.default_rng(20150501)
    n = rng.integers(math.ceil(h.x0), 10**8, size=400, endpoint=True)
    got = h.value_longdouble(n)
    assert got.dtype == np.longdouble
    ell = h.ell
    worst = 0.0
    with mpmath.workdps(40):
        for k, v in zip(n.tolist(), got):
            x = mpmath.mpf(k)
            if ell.kind == "log_power":
                e = mpmath.log(x) ** mpmath.mpf(ell.B)
            elif ell.kind == "exp_log_power":
                e = mpmath.exp(mpmath.mpf(ell.B) * mpmath.log(x) ** mpmath.mpf(ell.C))
            elif ell.kind == "iterated_log":
                e = x
                for _ in range(ell.m):
                    e = mpmath.log(e)
            else:
                e = mpmath.mpf(1)
            exact = x ** mpmath.mpf(h.c) * e
            num, den = v.as_integer_ratio()
            worst = max(worst, float(abs(mpmath.mpf(num) / den / exact - 1)))
    assert worst <= 4 * np.finfo(np.longdouble).eps


# ------------------------------------------------- Newton solve, per point

# one family of each slowly varying kind
KINDS = [f for f in FAMILIES if f[0] in ("xlogx", "exp_log_pow", "iterlog2", "x15")]


def _run(phi):
    return np.arange(max(8.0, math.ceil(phi.y0)), 2e5)


@pytest.mark.parametrize("name,make", KINDS)
def test_newton_h_evaluations_per_point(name, make, monkeypatch):
    phi = InverseFn(make())
    y = _run(phi)
    evals = []
    raw = RegVaryFn._deriv_raw

    def counting(h, x, order):
        if order in (0, 1):
            evals.append(np.size(x))
        return raw(h, x, order)

    monkeypatch.setattr(RegVaryFn, "_deriv_raw", counting)
    phi.invert(y)
    assert sum(evals) / y.size <= 16


@pytest.mark.parametrize("name,make", KINDS)
def test_pair_does_not_depend_on_the_chunk(name, make):
    phi = InverseFn(make())
    y = _run(phi)
    k = 5000
    head, tail = phi.pair(y)
    head_k, tail_k = phi.pair(y[k:])
    assert np.array_equal(head[k:], head_k)
    assert np.array_equal(tail[k:], tail_k)
    for i in (0, k, len(y) - 1):
        assert phi.pair(float(y[i])) == (head[i], tail[i])


def test_psi_run_equals_pair_difference_bitwise():
    phi = InverseFn(xlogx())
    psi = PsiFn(phi)
    for x in (float(psi.n_min), 12345.0, 1e8 + 0.5):
        h0, t0 = phi.pair(np.array([x]))
        h1, t1 = phi.pair(np.array([x + 1.0]))
        assert np.array_equal(psi.value(np.array([x])), (h1 - h0) + (t1 - t0))
    # a run and the same points out of order (two solves) agree bit for bit
    n = np.arange(float(psi.n_min), 5e4)
    assert np.array_equal(psi.value(n)[::-1], psi.value(n[::-1]))


def test_pairs_and_window_equals_separate_evaluation():
    phi = InverseFn(xlogx())
    shared = PsiFn(InverseFn(xlogx()))        # phi's own window, by value
    windows = (shared, PsiFn(InverseFn(xlog2x())), PsiFn(phi, mode="derivative"))
    lo = float(max(w.n_min for w in windows))
    for n in (np.arange(lo, 3e4),                             # a run
              np.array([9e7, lo, 1234.0, 1235.0]),            # scattered
              np.float64(777.0)):                             # a scalar
        for psi in windows:
            head, tail, psv = pairs_and_window(n, phi, psi)
            h0, t0 = phi.pair(n)
            assert np.shape(head) == np.shape(psv) == np.shape(n)
            assert np.array_equal(head, h0) and np.array_equal(tail, t0)
            assert np.array_equal(psv, psi(n))
    with pytest.raises(DomainError):
        pairs_and_window(np.array([shared.n_min - 1.0]), phi, shared)


def test_index_chunks_cover_the_range_in_fixed_runs():
    for run in (CHUNK, BLOCK):
        parts = list(index_chunks(5, 2 * run + 7, run))
        assert [p.size for p in parts] == [run, run, 3]
        assert np.array_equal(np.concatenate(parts), np.arange(5.0, 2 * run + 8))
        assert list(index_chunks(10, 9, run)) == []


@pytest.mark.parametrize("block", [1 << 6, CHUNK])
def test_pair_does_not_depend_on_the_block(block, monkeypatch):
    phi = InverseFn(xlogx())
    y = np.arange(10.0, 10.0 + 3 * BLOCK + 17)
    head, tail = phi.pair(y)
    monkeypatch.setattr(rvfunc, "BLOCK", block)
    head_b, tail_b = phi.pair(y)
    assert np.array_equal(head, head_b) and np.array_equal(tail, tail_b)


def test_a_block_run_and_its_successor_are_one_solve(monkeypatch):
    # the run's pairs and steps come from one _newton call of BLOCK + 1
    # points, bit for bit the run and its successor solved apart
    phi = InverseFn(xlogx())
    n = np.arange(1e5, 1e5 + BLOCK)
    head, tail = phi.pair(n)
    next_head, next_tail = phi.pair(n[-1] + 1.0)
    calls = []
    newton = InverseFn._newton

    def counting(inv, y):
        calls.append(np.size(y))
        return newton(inv, y)

    monkeypatch.setattr(InverseFn, "_newton", counting)
    h0, t0, steps = rvfunc._pairs_and_steps(phi, n)
    assert calls == [BLOCK + 1]
    assert np.array_equal(h0, head) and np.array_equal(t0, tail)
    h1, t1 = np.append(head[1:], next_head), np.append(tail[1:], next_tail)
    assert np.array_equal(steps, (h1 - h0) + (t1 - t0))
    calls.clear()
    phi.pair(np.arange(1e5, 1e5 + 2 * BLOCK + 1))
    assert calls == [BLOCK, BLOCK + 1]


def _mp_h(h, x):
    """h(x) in mpmath at the working precision."""
    ell = h.ell
    if ell.kind == "log_power":
        e = mpmath.log(x) ** mpmath.mpf(ell.B)
    elif ell.kind == "exp_log_power":
        e = mpmath.exp(mpmath.mpf(ell.B) * mpmath.log(x) ** mpmath.mpf(ell.C))
    elif ell.kind == "iterated_log":
        e = x
        for _ in range(ell.m):
            e = mpmath.log(e)
    else:
        e = mpmath.mpf(1)
    return x ** mpmath.mpf(h.c) * e


@pytest.mark.parametrize("name,make", KINDS)
def test_pair_matches_high_precision_root_every_kind(name, make):
    h = make()
    phi = InverseFn(h)
    rng = np.random.default_rng(20150502)
    ys = np.exp(rng.uniform(math.log(phi.y0 + 1.0), math.log(1e8), 64))
    head, tail = phi.pair(ys)
    worst = 0.0
    with mpmath.workdps(40):
        for y, hd, tl in zip(ys.tolist(), head.tolist(), tail.tolist()):
            root = mpmath.findroot(lambda x: _mp_h(h, x) - y, mpmath.mpf(hd))
            err = abs((mpmath.mpf(hd) + mpmath.mpf(tl)) - root)
            worst = max(worst, float(err / y))
    assert worst < 1e-18


# ------------------------------------------------------ double enclosures

ENCLOSED = FAMILIES + [
    ("x11_log", lambda: RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))),
    ("iterlog3", lambda: RegVaryFn(1.0, SlowlyVaryingSpec("iterated_log",
                                                          m=3))),
    ("exp_log_big", lambda: RegVaryFn(1.9, SlowlyVaryingSpec("exp_log_power",
                                                             B=2.0, C=0.9))),
]


@pytest.mark.parametrize("name,make", ENCLOSED)
def test_double_evaluation_of_h_keeps_to_the_rounding_allowance(name, make):
    # enclose certifies h(lo) < y < h(hi) on h in double precision with a
    # margin of H_ROUNDING relative; the error seen stays 256 times below
    h = make()
    x = np.exp(np.linspace(np.log(h.x0), np.log(1e12), 20001))
    x = np.concatenate([x, h.x0 * (1.0 + np.arange(2000) / 1e4)])
    ld = h.value_longdouble(x)
    err = np.abs(np.asarray((h._deriv_raw(x, 0) - ld) / ld, dtype=np.float64))
    assert err.max() < rvfunc.H_ROUNDING / 256


@pytest.mark.parametrize("name,make", ENCLOSED)
def test_enclose_brackets_the_pair_at_every_point(name, make):
    # the first run from the domain start, where phi curves most, and two
    # later ones: every point enclosed, about 2^-31 phi wide
    phi = InverseFn(make())
    for start in (math.ceil(phi.y0), 10**5, 10**7):
        y = np.arange(start, start + BLOCK + 1, dtype=np.float64)
        lo, hi = phi.enclose(y)
        head, tail = phi.pair(y)
        v = np.asarray(head, dtype=np.longdouble) + tail
        assert np.all(lo < v) and np.all(v < hi), (name, start)
        assert np.all(hi - lo <= 2.0**-30 * head), (name, start)


@pytest.mark.parametrize("name,make", KINDS)
def test_enclose_contains_the_high_precision_root(name, make):
    h = make()
    phi = InverseFn(h)
    rng = np.random.default_rng(20150503)
    ys = np.sort(np.exp(rng.uniform(math.log(phi.y0 + 1.0), math.log(1e8),
                                    32)))
    lo, hi = phi.enclose(ys)
    with mpmath.workdps(40):
        for y, a, b in zip(ys.tolist(), lo.tolist(), hi.tolist()):
            root = mpmath.findroot(lambda x: _mp_h(h, x) - y,
                                   mpmath.mpf(0.5 * (a + b)))
            assert mpmath.mpf(a) < root < mpmath.mpf(b)


def test_enclose_does_not_depend_on_the_other_points():
    # a point's enclosure is certified whatever the others are: a run and
    # its pieces enclose the same pair
    phi = InverseFn(RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0)))
    y = np.arange(3.0, 3000.0)
    head, tail = phi.pair(y)
    v = np.asarray(head, dtype=np.longdouble) + tail
    for part in (slice(0, 1), slice(5, 70), slice(1000, None)):
        lo, hi = phi.enclose(y[part])
        assert np.all(lo < v[part]) and np.all(v[part] < hi)
