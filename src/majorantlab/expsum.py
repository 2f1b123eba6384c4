"""Exponential sums over sparse sets, sawtooth pieces, and curvature bounds.

The chain implemented here:

    sum_{n in B_N} e(xi n)  =  sum_n psi(n) e(xi n)
                             + sum_n [Phi(phi1(n)-psi(n)) - Phi(phi1(n))] e(xi n)

with Phi(x) = {x} - 1/2, an exact identity because the membership
indicator equals floor(phi1(n)) - floor(phi1(n) - psi(n)).  Truncating
Phi at frequency M turns the bracket into the explicit double sum I1 plus
remainders dominated by min{1, 1/(M ||.||)} evaluated at phi1(n)-psi(n)
and phi1(n); decompose_I computes all three pieces as actual sums.

Frequencies come as a vector and one value per xi comes out; each
function scans its index range (solving psi there) once for all of
them.  The set, model and measure sums share the kernel weighted_sums,
one pairwise np.sum per chunk and xi, so no total depends on the other
frequencies (vdc_ratio_sweep's matrix products do, in the last bits).

Phase sums with arguments m*phi1(n) keep accuracy at large n by taking
fractional parts on head/tail pairs; plain products xi*n are reduced
mod 1 with an error-free transform.  Accumulation is numpy's pairwise
summation over chunks of rvfunc.CHUNK terms, which fixes the bits for any
worker count; terms are filled rvfunc.BLOCK at a time, fixing no value.
"""

from __future__ import annotations

import math

import numpy as np

from .compensated import (
    frac_int_times_pair,
    frac_pair,
    frac_product,
    nearest_int_distance,
    two_prod,
    wrap_unit,
)
from .errors import CapacityError
from .rvfunc import CHUNK, InverseFn, PsiFn, blocks, index_chunks, pairs_and_window
from .sparseset import DEFAULT_CAP, SparseSet
from .sweeps import SweepResult, per_row, sweep

_TWO_PI = 2.0 * math.pi
DEFAULT_WORK_BUDGET = 1 << 28

WEIGHTS = ("unit", "psi_inverse")


def e1(frac):
    """exp(2 pi i x) for x already reduced to [0, 1)."""
    return np.exp((2j * math.pi) * np.asarray(frac, dtype=np.float64))


def weighted_sums(chunks, xis) -> np.ndarray:
    """sum of w(n) e(xi n) over the (n, w) chunks, one value per xi."""
    xis = np.asarray(xis, dtype=np.float64)
    totals = np.zeros(len(xis), dtype=np.complex128)
    for n, w in chunks:
        terms = np.empty(len(n), dtype=np.complex128)
        for k, xi in enumerate(xis):
            for b in blocks(len(n)):
                terms[b] = w[b] * e1(frac_product(xi, n[b]))
            totals[k] += np.sum(terms)
    return totals


def _member_chunks(bset: SparseSet, xis: np.ndarray, weight: str):
    """(n, weight(n)) over the members, after checking xis, weight, window."""
    if not np.all((0.0 <= xis) & (xis < 1.0)):
        raise ValueError("xi must lie in [0, 1)")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    if weight != "unit" and bset.psi is None:
        raise ValueError("the psi_inverse weight needs a set built with a window")
    for a in range(0, len(bset.members), CHUNK):
        n = bset.members[a:a + CHUNK].astype(np.float64)
        if weight == "unit":
            yield n, np.ones_like(n)
        else:
            yield n, 1.0 / _filled(bset.psi, n)


def exp_sum(bset: SparseSet, xis, weight: str = "unit") -> np.ndarray:
    """sum over the set of weight(n) * e(xi n), one value per xi in [0, 1);
    the weight is 1 ("unit") or 1/psi(n) ("psi_inverse")."""
    xis = np.asarray(xis, dtype=np.float64)
    return weighted_sums(_member_chunks(bset, xis, weight), xis)


def model_sum(N: int, xis, weight: str = "unit",
              psi: PsiFn | None = None) -> np.ndarray:
    """The smooth model at every xi: sum_{n=1}^N e(xi n) in closed form
    for unit weight, or the direct sum of psi(n) e(xi n) over [n_min, N]."""
    if weight == "unit":
        return np.array([dirichlet_sum(N, xi) for xi in xis], dtype=complex)
    if weight != "psi":
        raise ValueError("model_sum supports unit and psi weights")
    if psi is None:
        raise ValueError("psi weight needs the window object")
    if N < psi.n_min:
        raise ValueError("N below the window's n_min")
    return weighted_sums(((n, _filled(psi, n))
                          for n in index_chunks(psi.n_min, N, CHUNK)), xis)


def _filled(f, n) -> np.ndarray:
    """f(n) as float64, evaluated BLOCK indices at a time."""
    out = np.empty(len(n))
    for b in blocks(len(n)):
        out[b] = f(n[b])
    return out


def _frac_and_parity(xi: float, k: float):
    """(frac(xi*k), parity of floor(xi*k)) with an error-free product."""
    p, err = two_prod(np.float64(xi), np.float64(k))
    base = np.floor(p)
    f = (p - base) + err
    if f < 0:
        f += 1.0
        base -= 1.0
    elif f >= 1:
        f -= 1.0
        base += 1.0
    return float(f), int(base) % 2


def dirichlet_sum(N: int, xi: float) -> complex:
    """sum_{n=1}^N e(xi n) = e(xi (N+1)/2) sin(pi N xi) / sin(pi xi)."""
    f = xi - math.floor(xi)
    if f == 0.0:
        return complex(N)
    fN, parN = _frac_and_parity(xi, N)
    num = math.sin(math.pi * fN) * (-1.0 if parN else 1.0)
    den = math.sin(math.pi * f)
    # e(xi (N+1)/2): halve the error-free reduction of xi (N+1) mod 2
    p, err = two_prod(np.float64(xi), np.float64(N + 1))
    half = float(p) / 2.0
    phase = (half - math.floor(half)) + float(err) / 2.0
    return (num / den) * complex(np.exp(2j * math.pi * phase))


def _modulus(z: np.ndarray) -> np.ndarray:
    # as abs() of a Python complex; np.abs can round the last bit apart
    return np.hypot(z.real, z.imag)


def error_term(bset: SparseSet, xis) -> np.ndarray:
    """|exp sum over the set - psi-weighted model sum| at every xi."""
    xis = np.asarray(xis, dtype=np.float64)
    # the kernel rather than exp_sum: bench/tracer.py's exp_sum hook
    # reads args[0].set.members, the request exp_sum used to take
    s = weighted_sums(_member_chunks(bset, xis, "unit"), xis)
    return _modulus(s - model_sum(bset.spec.N, xis, "psi", psi=bset.psi))


def weighted_inverse_vs_dirichlet(bset: SparseSet, xis) -> np.ndarray:
    """|sum_{n in B_N} psi(n)^{-1} e(xi n) - sum_{n=1}^N e(xi n)| per xi."""
    return _modulus(exp_sum(bset, xis, "psi_inverse")
                    - model_sum(bset.spec.N, xis))


# per_xi_sweep's experiments: quantity, measure(bset, xis), reference(bset),
# the y(row) fitted against N, and the functions of the spec rows echo
PER_XI = {
    "expsum-decay": ("error_over_phi2", error_term,
                     lambda b: InverseFn(b.spec.h2).invert(float(b.spec.N)),
                     lambda r: r.ratio, ("h1", "h2")),
    "lemma2": ("inverse_weight_deviation", weighted_inverse_vs_dirichlet,
               lambda b: float(b.spec.N), lambda r: r.value, ()),
}


def per_xi_sweep(experiment: str, build_set_fn, N_list, xis, seed=None,
                 workers: int = 1) -> list[SweepResult]:
    """The rows of experiment, a key of PER_XI: one per N of N_list and
    xi of xis, N-major, measuring the set build_set_fn(N) -> SparseSet
    at xi.  One sweeps.sweep task per N; the rows of one xi share the
    log-log slope of y(row) against N."""
    quantity, measure, reference, y, echoed = PER_XI[experiment]

    def task(N):
        bset = build_set_fn(N)
        ref = reference(bset)
        extra = {k: getattr(bset.spec, k).to_kv() for k in echoed}
        return [SweepResult(
            experiment=experiment, quantity=quantity, value=float(v),
            reference=ref, ratio=float(v) / ref, seed=seed,
            borderline_count=bset.borderline_count,
            params={"N": N, "xi": float(xi), **extra},
        ) for xi, v in zip(xis, measure(bset, xis))]

    return sweep([int(N) for N in N_list], task, per_row(y),
                 key=lambda r: r.params["xi"], workers=workers)


# ------------------------------------------------------------- sawtooth


def sawtooth(x):
    """{x} - 1/2."""
    x = np.asarray(x, dtype=np.float64)
    out = (x - np.floor(x)) - 0.5
    return float(out) if out.ndim == 0 else out


def sawtooth_truncated(x, M: int):
    """Partial Fourier sum -(1/pi) sum_{m<=M} sin(2 pi m x)/m."""
    if M < 1:
        raise ValueError("M must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    acc = np.zeros_like(x)
    for m in range(1, M + 1):
        acc += np.sin(_TWO_PI * m * x) / m
    out = -acc / math.pi
    return float(out) if out.ndim == 0 else out


def sawtooth_envelope(x, M: int):
    """min(1, 1/(M ||x||)), the majorant of the truncation error."""
    d = nearest_int_distance(x)
    with np.errstate(divide="ignore"):
        out = np.minimum(1.0, 1.0 / (M * d))
    return float(out) if np.ndim(x) == 0 else out


# ----------------------------------------------------- Van der Corput


def vdc_sum(m: int, l: int, xi: float, X: float, X2: float,
            phi1: InverseFn, psi: PsiFn | None = None) -> complex:
    """sum over integers n in [X, X2] of e(xi n + m (phi1(n) - l psi(n))).

    Empty ranges give 0.  The curvature regime of the second-derivative
    bound is X2 <= 2X; larger spans are allowed and simply cover several
    dyadic blocks.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    if l not in (0, 1):
        raise ValueError("l must be 0 or 1")
    if l == 1 and psi is None:
        raise ValueError("l = 1 needs the window object")
    total = 0.0 + 0.0j
    for n in index_chunks(math.ceil(X), math.floor(X2), CHUNK):
        terms = np.empty(len(n), dtype=np.complex128)
        for b in blocks(len(n)):
            if l:
                head, tail, psv = pairs_and_window(n[b], phi1, psi)
                f = wrap_unit(frac_int_times_pair(m, head, tail)
                              - wrap_unit(m * psv % 1.0))
            else:
                f = frac_int_times_pair(m, *phi1.pair(n[b]))
            terms[b] = e1(wrap_unit(f + frac_product(xi, n[b])))
        total += np.sum(terms)
    return complex(total)


def vdc_bound(m: int, X: float, phi1: InverseFn) -> float:
    """m^(1/2) X (sigma(X) phi1(X))^(-1/2), constant 1, with the
    curvature factor sigma(X) empirical at c = 1 and 1 for c > 1."""
    if m == 0:
        raise ValueError("m must be nonzero")
    s = 1.0 if phi1.source.c > 1.0 else float(phi1.sigma1_hat(X))
    return math.sqrt(abs(m)) * X / math.sqrt(s * phi1.invert(X))


def lemma1_bound(m: int, N: float, phi1: InverseFn) -> float:
    """m^(1/2) N log(N) (sigma(N) phi1(N))^(-1/2), constant 1."""
    return vdc_bound(m, N, phi1) * math.log(N)


def vdc_ratio_sweep(phi1: InverseFn, psi: PsiFn, m_max: int, xi_list,
                    levels, l_values=(0, 1)) -> list[SweepResult]:
    """|full phase sum| / lemma1_bound over m in 1..m_max, the given
    frequencies, and dyadic endpoints N in `levels`; rows go by the
    position of xi in xi_list, then l, m and N, and share the log-log
    slope of the per-level maxima of the ratio.  A range of more than
    sparseset.DEFAULT_CAP indices raises CapacityError, as a set build
    of that size does.
    """
    if m_max < 1:
        raise ValueError(f"m-max must be >= 1, got {m_max}")
    levels = sorted(int(N) for N in levels)
    if levels[-1] - psi.n_min + 1 > DEFAULT_CAP:
        raise CapacityError(f"VdC scan of {levels[-1] - psi.n_min + 1} "
                            f"indices exceeds cap {DEFAULT_CAP}")
    # one sweeps.sweep task: one scan of the index range serves the grid
    return sweep(
        [np.asarray(list(xi_list), dtype=np.float64)],
        lambda xis: _vdc_ratios(phi1, psi, m_max, xis, levels, l_values),
        lambda rows: (levels, np.reshape([r.ratio for r in rows],
                                         (-1, len(levels))).max(axis=0)))


def _vdc_ratios(phi1, psi, m_max, xi_arr, levels, l_values):
    """The rows of vdc_ratio_sweep.  Powers e(m(phi1 - l psi)) are built
    progressively and contracted against the frequency matrix, so the
    cost is a handful of BLAS calls per chunk rather than m_max * |xi|
    separate scans."""
    sums = np.zeros((len(l_values), m_max, len(xi_arr), len(levels)),
                    dtype=np.complex128)
    # lemma1_bound(m, N) = sqrt(m) lemma1_bound(1, N): one bound per level
    bounds = np.sqrt(np.arange(1, m_max + 1))[:, None] * np.array(
        [lemma1_bound(1, float(N), phi1) for N in levels])
    for n in index_chunks(psi.n_min, levels[-1], CHUNK):
        a, b = int(n[0]), int(n[-1])
        fphi, psv, u = np.empty(len(n)), np.empty(len(n)), np.empty(len(n), complex)
        E = np.empty((len(n), len(xi_arr)), dtype=np.complex128)
        for s in blocks(len(n)):
            head, tail, psv[s] = pairs_and_window(n[s], phi1, psi)
            fphi[s] = frac_pair(head, tail)
            E[s] = e1(frac_product(xi_arr[None, :], n[s, None]))
        # accumulate into every level that contains this chunk entirely,
        # splitting chunks at level boundaries
        cuts = [iN for iN, N in enumerate(levels) if a <= N < b]
        seg_edges = [a - 1] + [levels[i] for i in cuts] + [b]
        for il, l in enumerate(l_values):
            for s in blocks(len(n)):
                u[s] = e1(wrap_unit(fphi[s] - l * psv[s] % 1.0) if l else fphi[s])
            cur = u.copy()
            for im in range(m_max):
                for s0, s1 in zip(seg_edges[:-1], seg_edges[1:]):
                    i0, i1 = s0 + 1 - a, s1 + 1 - a
                    part = cur[i0:i1] @ E[i0:i1]
                    touched = np.searchsorted(levels, s1)
                    sums[il, im, :, touched:] += part[:, None]
                if im + 1 < m_max:
                    cur = cur * u
    rows = []
    for ix, xi in enumerate(xi_arr):
        for il, l in enumerate(l_values):
            for im in range(m_max):
                for iN, N in enumerate(levels):
                    val = abs(sums[il, im, ix, iN])
                    bd = bounds[im, iN]
                    rows.append(SweepResult(
                        experiment="vdc", quantity="vdc_ratio",
                        value=val, reference=bd, ratio=val / bd,
                        params={"m": im + 1, "l": l, "xi": float(xi), "N": N},
                    ))
    return rows


# -------------------------------------------------- sawtooth decomposition


def delta_from_margin(margin: float) -> float:
    """Work at 90% of the admissible margin: delta with
    3(1-gamma2) + (1-gamma1) + 6 delta < 1 held strictly."""
    if margin <= 0:
        raise ValueError("exponent pair leaves no admissible margin")
    return 0.9 * margin / 6.0


def truncation_M(N: int, phi2: InverseFn, delta: float) -> int:
    """M = N^(1+delta) log(N) / phi2(N), at least 1."""
    return max(1, math.ceil(N ** (1.0 + delta) * math.log(N) / phi2.invert(float(N))))


def decompose_I(bset: SparseSet, xi: float, M: int, N: int | None = None):
    """The three error pieces of the sawtooth expansion at truncation M.

    I1 is the exact double sum with the factors e(m psi(n)) - 1; the
    remainder envelopes I2 (at phi1 - psi) and I3 (at phi1) are computed
    as actual sums of min{1, 1/(M ||.||)}, not bounded.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    N = bset.spec.N if N is None else N
    count = max(N - bset.n_min + 1, 0)
    if M * count > DEFAULT_WORK_BUDGET:
        raise CapacityError(f"I1 needs {M * count} phase terms, "
                            f"budget {DEFAULT_WORK_BUDGET}")
    I1 = 0.0 + 0.0j
    I2 = 0.0
    I3 = 0.0
    for n in index_chunks(bset.n_min, N, CHUNK):
        env2, env3 = np.empty(len(n)), np.empty(len(n))
        Exi, z, w = (np.empty(len(n), dtype=np.complex128) for _ in range(3))
        for b in blocks(len(n)):
            head, tail, psv = pairs_and_window(n[b], bset.phi1, bset.psi)
            fphi = frac_pair(head, tail)
            env2[b] = sawtooth_envelope(wrap_unit(fphi - psv), M)
            env3[b] = sawtooth_envelope(fphi, M)
            Exi[b] = e1(frac_product(xi, n[b]))
            z[b] = e1(wrap_unit(-fphi))        # e(-2 pi i phi1(n))
            w[b] = e1(wrap_unit(psv % 1.0))    # e( 2 pi i psi(n))
        I2 += float(np.sum(env2))
        I3 += float(np.sum(env3))
        zm, wm = z, w
        for m in range(1, M + 1):
            # m and -m terms combine into Im(.) by conjugate symmetry
            I1 += np.sum(Exi * np.imag(zm * (wm - 1.0))) / (math.pi * m)
            if m < M:
                zm = zm * z
                wm = wm * w
    return complex(I1), float(I2), float(I3)
