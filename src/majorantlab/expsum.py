"""Exponential sums over sparse sets, sawtooth pieces, and curvature bounds.

The chain implemented here:

    sum_{n in B_N} e(xi n)  =  sum_n psi(n) e(xi n)
                             + sum_n [Phi(phi1(n)-psi(n)) - Phi(phi1(n))] e(xi n)

with Phi(x) = {x} - 1/2, an exact identity because the membership
indicator equals floor(phi1(n)) - floor(phi1(n) - psi(n)).  Truncating
Phi at frequency M turns the bracket into the explicit double sum I1 plus
remainders dominated by min{1, 1/(M ||.||)} evaluated at phi1(n)-psi(n)
and phi1(n); decompose_I computes all three pieces as actual sums.

Phase sums with arguments m*phi1(n) keep accuracy at large n by taking
fractional parts on head/tail pairs; plain products xi*n are reduced
mod 1 with an error-free transform.  Accumulation uses numpy's pairwise
summation over fixed-size chunks, so results are deterministic and do
not depend on any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .rvfunc import CHUNK, InverseFn, PsiFn, index_chunks, pairs_and_window
from .sparseset import DEFAULT_CAP, SparseSet
from .sweeps import SweepResult

_TWO_PI = 2.0 * math.pi
DEFAULT_WORK_BUDGET = 1 << 28

WEIGHTS = ("unit", "psi", "psi_inverse")


def e1(frac):
    """exp(2 pi i x) for x already reduced to [0, 1)."""
    return np.exp((2j * math.pi) * np.asarray(frac, dtype=np.float64))


@dataclass(frozen=True)
class ExpSumRequest:
    set: SparseSet
    xi: float
    weight: str = "unit"

    def __post_init__(self):
        if not 0.0 <= self.xi < 1.0:
            raise ValueError("xi must lie in [0, 1)")
        if self.weight not in WEIGHTS:
            raise ValueError(f"unknown weight {self.weight!r}")
        if self.weight != "unit" and self.set.psi is None:
            raise ValueError("psi/psi_inverse weights need a set built with a window")


def _weights_for(req: ExpSumRequest, n: np.ndarray) -> np.ndarray:
    if req.weight == "unit":
        return np.ones_like(n)
    w = np.asarray(req.set.psi(n), dtype=np.float64)
    return 1.0 / w if req.weight == "psi_inverse" else w


def exp_sum(req: ExpSumRequest) -> complex:
    """sum over the set of weight(n) * e(xi n), chunked pairwise."""
    total = 0.0 + 0.0j
    members = req.set.members
    for a in range(0, len(members), CHUNK):
        n = members[a:a + CHUNK].astype(np.float64)
        total += np.sum(_weights_for(req, n) * e1(frac_product(req.xi, n)))
    return complex(total)


def model_sum(N: int, xi: float, weight: str = "unit",
              psi: PsiFn | None = None) -> complex:
    """The smooth model: sum_{n=1}^N e(xi n) in closed form for unit
    weight, or the direct sum of psi(n) e(xi n) over [n_min, N]."""
    if weight == "unit":
        return dirichlet_sum(N, xi)
    if weight != "psi":
        raise ValueError("model_sum supports unit and psi weights")
    if psi is None:
        raise ValueError("psi weight needs the window object")
    if N < psi.n_min:
        raise ValueError("N below the window's n_min")
    total = 0.0 + 0.0j
    for n in index_chunks(psi.n_min, N):
        total += np.sum(np.asarray(psi(n), dtype=np.float64)
                        * e1(frac_product(xi, n)))
    return complex(total)


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


def error_term(bset: SparseSet, xi: float) -> float:
    """|exp sum over the set - psi-weighted model sum| at frequency xi."""
    s = exp_sum(ExpSumRequest(bset, xi, "unit"))
    m = model_sum(bset.spec.N, xi, "psi", psi=bset.psi)
    return abs(s - m)


def weighted_inverse_vs_dirichlet(bset: SparseSet, xi: float) -> float:
    """|sum_{n in B_N} psi(n)^{-1} e(xi n) - sum_{n=1}^N e(xi n)|."""
    s = exp_sum(ExpSumRequest(bset, xi, "psi_inverse"))
    return abs(s - dirichlet_sum(bset.spec.N, xi))


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
    for n in index_chunks(math.ceil(X), math.floor(X2)):
        if l:
            head, tail, psv = pairs_and_window(n, phi1, psi)
            f = wrap_unit(frac_int_times_pair(m, head, tail)
                          - wrap_unit(m * psv % 1.0))
        else:
            f = frac_int_times_pair(m, *phi1.pair(n))
        f = wrap_unit(f + frac_product(xi, n))
        total += np.sum(e1(f))
    return complex(total)


def sigma_factor(phi1: InverseFn, X, sigma_mode: str = "auto"):
    """sigma(X): the empirical curvature factor at c = 1, else 1."""
    if sigma_mode == "one" or (sigma_mode == "auto" and phi1.source.c > 1.0):
        return np.ones_like(np.asarray(X, dtype=np.float64)) if np.ndim(X) else 1.0
    if sigma_mode not in ("auto", "empirical"):
        raise ValueError(f"unknown sigma mode {sigma_mode!r}")
    return phi1.sigma1_hat(X)


def vdc_bound(m: int, X: float, phi1: InverseFn, sigma_mode: str = "auto") -> float:
    """m^(1/2) X (sigma(X) phi1(X))^(-1/2), constant 1."""
    if m == 0:
        raise ValueError("m must be nonzero")
    s = sigma_factor(phi1, X, sigma_mode)
    return math.sqrt(abs(m)) * X / math.sqrt(float(s) * phi1.invert(X))


def lemma1_bound(m: int, N: float, phi1: InverseFn, sigma_mode: str = "auto") -> float:
    """m^(1/2) N log(N) (sigma(N) phi1(N))^(-1/2), constant 1."""
    return vdc_bound(m, N, phi1, sigma_mode) * math.log(N)


def vdc_ratio_sweep(phi1: InverseFn, psi: PsiFn, m_max: int, xi_list,
                    levels, l_values=(0, 1),
                    experiment: str = "vdc") -> list[SweepResult]:
    """|full phase sum| / lemma1_bound over m in 1..m_max, the given
    frequencies, and dyadic endpoints N in `levels`.

    One pass over the index range: powers e(m(phi1 - l psi)) are built
    progressively and contracted against the frequency matrix, so the
    cost is a handful of BLAS calls per chunk rather than m_max * |xi|
    separate scans.  A range of more than sparseset.DEFAULT_CAP indices
    raises CapacityError, as a set build of that size does.
    """
    levels = sorted(int(N) for N in levels)
    if levels[-1] - psi.n_min + 1 > DEFAULT_CAP:
        raise CapacityError(f"VdC scan of {levels[-1] - psi.n_min + 1} "
                            f"indices exceeds cap {DEFAULT_CAP}")
    xi_arr = np.asarray(list(xi_list), dtype=np.float64)
    sums = np.zeros((len(l_values), m_max, len(xi_arr), len(levels)),
                    dtype=np.complex128)
    # lemma1_bound(m, N) = sqrt(m) lemma1_bound(1, N): one bound per level
    bounds = np.sqrt(np.arange(1, m_max + 1))[:, None] * np.array(
        [lemma1_bound(1, float(N), phi1) for N in levels])
    for n in index_chunks(psi.n_min, levels[-1]):
        a, b = int(n[0]), int(n[-1])
        head, tail, psv = pairs_and_window(n, phi1, psi)
        fphi = frac_pair(head, tail)
        E = e1(frac_product(xi_arr[None, :], n[:, None]))
        # accumulate into every level that contains this chunk entirely,
        # splitting chunks at level boundaries
        cuts = [iN for iN, N in enumerate(levels) if a <= N < b]
        seg_edges = [a - 1] + [levels[i] for i in cuts] + [b]
        for il, l in enumerate(l_values):
            base = wrap_unit(fphi - l * psv % 1.0) if l else fphi
            u = e1(base)
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
    for il, l in enumerate(l_values):
        for im in range(m_max):
            for ix, xi in enumerate(xi_arr):
                for iN, N in enumerate(levels):
                    val = abs(sums[il, im, ix, iN])
                    bd = bounds[im, iN]
                    rows.append(SweepResult(
                        experiment=experiment, quantity="vdc_ratio",
                        value=val, reference=bd, ratio=val / bd,
                        params={"m": im + 1, "l": l, "xi": float(xi), "N": N},
                    ))
    return rows


# -------------------------------------------------- sawtooth decomposition


def delta_from_margin(margin: float, fraction: float = 0.9) -> float:
    """Work at 90% of the admissible margin: delta with
    3(1-gamma2) + (1-gamma1) + 6 delta < 1 held strictly."""
    if margin <= 0:
        raise ValueError("exponent pair leaves no admissible margin")
    return fraction * margin / 6.0


def truncation_M(N: int, phi2: InverseFn, delta: float) -> int:
    """M = N^(1+delta) log(N) / phi2(N), at least 1."""
    return max(1, math.ceil(N ** (1.0 + delta) * math.log(N) / phi2.invert(float(N))))


def decompose_I(bset: SparseSet, xi: float, M: int, N: int | None = None,
                budget: int = DEFAULT_WORK_BUDGET):
    """The three error pieces of the sawtooth expansion at truncation M.

    I1 is the exact double sum with the factors e(m psi(n)) - 1; the
    remainder envelopes I2 (at phi1 - psi) and I3 (at phi1) are computed
    as actual sums of min{1, 1/(M ||.||)}, not bounded.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    N = bset.spec.N if N is None else N
    count = max(N - bset.n_min + 1, 0)
    if M * count > budget:
        raise CapacityError(f"I1 needs {M * count} phase terms, budget {budget}")
    I1 = 0.0 + 0.0j
    I2 = 0.0
    I3 = 0.0
    for n in index_chunks(bset.n_min, N):
        head, tail, psv = pairs_and_window(n, bset.phi1, bset.psi)
        fphi = frac_pair(head, tail)
        with np.errstate(divide="ignore"):
            d2 = nearest_int_distance(wrap_unit(fphi - psv))
            I2 += float(np.sum(np.minimum(1.0, 1.0 / (M * d2))))
            d3 = nearest_int_distance(fphi)
            I3 += float(np.sum(np.minimum(1.0, 1.0 / (M * d3))))
        Exi = e1(frac_product(xi, n))
        z = e1(wrap_unit(-fphi))        # e(-2 pi i phi1(n))
        w = e1(wrap_unit(psv % 1.0))    # e( 2 pi i psi(n))
        zm = z.copy()
        wm = w.copy()
        for m in range(1, M + 1):
            # m and -m terms combine into Im(.) by conjugate symmetry
            I1 += np.sum(Exi * np.imag(zm * (wm - 1.0))) / (math.pi * m)
            if m < M:
                zm = zm * z
                wm = wm * w
    return complex(I1), float(I2), float(I3)
