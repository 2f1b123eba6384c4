"""Trigonometric polynomials on the torus and the discrete restriction pair.

L^p norms are computed by uniform sampling (the periodic rectangle rule).
The grid of K points starts at the smallest power of two >= 8 (D+1) and
doubles until the value stabilizes.  It is sampled as K/M cosets of the
grid of M points, M the smallest power of two above the degree D: the
coset at offset r/K is one length-M inverse DFT of the coefficients
turned by e(n r/K).  Doubling the grid samples only its new odd cosets and
adds them to the running sum of |P|^p, so every point is computed once.
A length-M DFT is one FFT of length M below SPLIT_AT points; from SPLIT_AT
on it is split into FFTs of lengths M1 and M2 = M/M1 on an (M1, M2) array,
M1 about sqrt(M), which keep to the cache where one FFT of length M does
not (`_grid_dft`; the phase ascent of `majorant` uses the same transform).
For even p the rule is exact as soon as the grid exceeds p*D points, since
|P|^p is itself a trigonometric polynomial of degree p*D; the even-p route
through iterated coefficient convolution is kept as an independent oracle.

The measures mu_N (atoms on a sparse set, masses 1/(N psi(n))) and nu_N
(uniform on [1, N]) drive the extension operator f -> F(f mu) and its
T T* composition, which multiplies Fourier coefficients by the measure's
masses.

The restriction row is the largest ratio ||F(f mu_N)||_p N^(1/p) /
||f||_{L2(mu_N)} over seeded test functions f, all-ones first.  A random
f gets its quadrature only if a certified upper bound on its ratio
reaches the best ratio found so far.  For P of degree D, S = max |P| on
a grid of K > pi D / 2 points bounds the sup norm: Bernstein's
inequality for e(-D x/2) P, of exponential type pi D, gives
||P||_inf <= S / (1 - pi D / (2 K)).  For p >= 2, with 2k the largest
even integer <= p (at most 16), Hoelder between L^2k and L^inf gives
||P||_p^p <= ||P||_inf^(p-2k) ||P||_2k^2k.  For k = 1 (2 <= p < 4),
||P||_2 is the l2 norm of the coefficients (Parseval), and S comes from
lp_norm's first grid, K = 8 M with M = _start_grid(D) / 8, so the
factor is at most 1/(1 - pi/16).  For k >= 2 the grid has K = c M
points, c >= 2 the smallest power of two with c M > k D: the mean of
|P|^2k over it is ||P||_2k^2k exactly, as |P|^2k has degree k D, and S
is taken on the same points.  At p = 4.2 that is 2 of the 8 cosets of
the first grid, and Bernstein's factor, up to 1/(1 - pi/4), enters only
to the power 1 - 4/p.  For p < 2 no such bound follows, and every f
gets its quadrature.  A bound below the best ratio by a factor
1 + 10 tol, the quadrature tolerance, skips the f: the margin covers FFT
rounding and lp_norm's own stopping error, so the row is the maximum of
the full loop, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compensated import frac_product
from .errors import CapacityError, ConvergenceError
from .expsum import weighted_sums
from .rvfunc import CHUNK
from .sparseset import SparseSet
from .sweeps import derive_seed

DEGREE_CAP = 1 << 23
GRID_CAP_DEFAULT = 1 << 26
_CONV_BUDGET = 1 << 26
# grids of at least this many points are transformed as an (M1, M2) array
# (`_grid_dft`); below it one FFT of the whole grid is no slower in lp_norm
SPLIT_AT = 1 << 13
# Taylor terms of the low-frequency window's sum (lower_bound_lowfreq)
_LOWFREQ_TERMS = 16


@dataclass
class TrigPoly:
    """P(xi) = sum over support of coeff * e(2 pi i n xi), n >= 0."""

    support: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.support.shape != self.coeffs.shape or self.support.ndim != 1:
            raise ValueError("support and coeffs must be matching 1-d arrays")
        if len(self.support):
            if np.any(np.diff(self.support) <= 0):
                raise ValueError("support must be strictly increasing")
            if self.support[0] < 0:
                raise ValueError("support must be nonnegative")
            if self.support[-1] > DEGREE_CAP:
                raise CapacityError(f"degree {self.support[-1]} above cap {DEGREE_CAP}")
        if not np.all(np.isfinite(self.coeffs.view(np.float64))):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return int(self.support[-1]) if len(self.support) else 0

    def dense(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.complex128)
        out[self.support] = self.coeffs
        return out

    def grid_values(self, K: int) -> np.ndarray:
        """P sampled at xi = j/K, j = 0..K-1."""
        if K <= self.degree:
            raise ValueError("grid shorter than the degree aliases the support")
        dense = self.dense(K)
        return np.fft.ifft(dense, norm="forward", out=dense)

    def evaluate(self, xi) -> np.ndarray:
        """Direct evaluation at arbitrary frequencies (compensated phases)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        out = np.zeros(len(xi), dtype=np.complex128)
        step = max(1, (1 << 22) // max(len(xi), 1))
        for a in range(0, len(self.support), step):
            n = self.support[a:a + step].astype(np.float64)
            ph = frac_product(xi[:, None], n[None, :])
            out += np.exp(2j * np.pi * ph) @ self.coeffs[a:a + step]
        return out

    def shifted(self, k: int) -> "TrigPoly":
        return TrigPoly(self.support + int(k), self.coeffs.copy())

    def l2_coeff_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


@dataclass
class QuadratureResult:
    value: float
    grid_size: int
    refinement_error: float


def _start_grid(degree: int) -> int:
    K = 8
    while K < 8 * (degree + 1):
        K *= 2
    return K


def _grid_dft(support: np.ndarray, M: int):
    """The length-M inverse DFT between coefficients on `support` (every n
    below M) and the grid j/M, j < M, as two functions over one buffer:

    values(coeffs): the sum of coeffs * e(n j/M) over the support at every
        j, in grid order; a view of the buffer, which the next call
        overwrites;
    at_support(grid): the sum of grid[j] * e(n j/M) over j at every n of
        the support (the transpose of `values`); `grid`, a contiguous
        array of length M, is transformed in place.

    Below SPLIT_AT each is one in-place FFT of length M.  From SPLIT_AT on
    the grid is an (M1, M2) array, M1 = 2^floor(log2(M)/2) and M2 = M/M1:
    frequency n sits at [n mod M1, n div M1] and grid point j at
    [j div M2, j mod M2].  `values` runs FFTs of length M2 along axis 1,
    multiplies by the twiddles e(n1 j2/M) and runs FFTs of length M1 along
    axis 0; `at_support` runs the same steps in reverse order.  Every FFT
    is np.fft.ifft with norm="forward", i.e. unscaled."""
    if M < SPLIT_AT:
        buf = np.empty(M, dtype=np.complex128)
        at, twiddle = support, None
    else:
        M1 = 1 << (M.bit_length() - 1) // 2
        M2 = M // M1
        buf = np.empty((M1, M2), dtype=np.complex128)
        at = (support % M1) * M2 + support // M1
        twiddle = np.exp((2j * np.pi / M)
                         * np.outer(np.arange(M1), np.arange(M2)))
    flat = buf.reshape(M)

    def values(coeffs) -> np.ndarray:
        flat.fill(0.0)
        flat[at] = coeffs
        if twiddle is None:
            return np.fft.ifft(flat, norm="forward", out=flat)
        np.fft.ifft(buf, axis=1, norm="forward", out=buf)
        np.multiply(buf, twiddle, out=buf)
        np.fft.ifft(buf, axis=0, norm="forward", out=buf)
        return flat

    def at_support(grid: np.ndarray) -> np.ndarray:
        if twiddle is None:
            return np.fft.ifft(grid, norm="forward", out=grid)[at]
        g = grid.reshape(buf.shape)
        np.fft.ifft(g, axis=0, norm="forward", out=g)
        np.multiply(g, twiddle, out=g)
        np.fft.ifft(g, axis=1, norm="forward", out=g)
        return grid[at]

    return values, at_support


def _coset_sampler(support: np.ndarray, coeffs: np.ndarray, M: int):
    """coset(K, r): sum of coeffs * e(n xi) over the support at
    xi = j/M + r/K, j < M, in grid order: the length-M transform
    (`_grid_dft`) of the coefficients turned by e(n r/K).  Every n must
    lie below M, and M must divide K.  One buffer serves every call, so
    each call overwrites the values the last one returned."""
    values, _ = _grid_dft(support, M)

    def coset(K: int, r: int) -> np.ndarray:
        turn = ((support * r) % K) / K
        return values(coeffs * np.exp(2j * np.pi * turn))

    return coset


def lp_norm(P: TrigPoly, p: float, tol: float = 1e-8,
            cap: int = GRID_CAP_DEFAULT) -> QuadratureResult:
    """(integral of |P|^p over the torus)^(1/p) by doubling rectangle rule.

    The K-point grid is sampled as K/M cosets, one length-M inverse DFT
    each (one FFT below SPLIT_AT, two passes of shorter FFTs from it on),
    M = _start_grid(degree) / 8; a doubling samples only its K/M new
    odd cosets and adds their |P|^p to the running sum, so every grid
    point is computed once.  The rule stops on the relative change between
    successive grids, or at once for even p when K exceeds p * degree."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError("tol must lie in [1e-12, 1e-2]")
    if len(P.support) == 0:
        return QuadratureResult(0.0, 0, 0.0)
    K = _start_grid(P.degree)
    M = K // 8
    coset = _coset_sampler(P.support, P.coeffs, M)
    mags = np.empty(M)
    # |P|^p at j/M + r/K summed over the cosets r sampled so far, per j
    power = np.zeros(M)
    even = p == int(p) and int(p) % 2 == 0
    new_cosets = range(8)
    prev = None
    while True:
        for r in new_cosets:
            np.abs(coset(K, r), out=mags)
            power += np.power(mags, p, out=mags)
        value = float((np.sum(power) / K) ** (1.0 / p))
        if even and K > p * P.degree:
            return QuadratureResult(value, K, 0.0)
        if prev is not None:
            rel = abs(value - prev) / max(value, 1e-300)
            if rel < tol:
                return QuadratureResult(value, K, rel)
        if 2 * K > cap:
            raise ConvergenceError(
                f"quadrature did not stabilize within grid cap {cap}",
                last=value, previous=prev)
        prev = value
        K *= 2
        new_cosets = range(1, K // M, 2)


def even_p_oracle(P: TrigPoly, p: int, budget: int = _CONV_BUDGET) -> float:
    """||P||_p^p for even p via iterated coefficient convolution.

    Exact up to roundoff and entirely independent of quadrature: the
    coefficients of P^(p/2) are accumulated support-point by support
    point, and Parseval turns their l2 mass into the integral.
    """
    if p not in (2, 4, 6, 8):
        raise ValueError("even_p_oracle supports p in {2, 4, 6, 8}")
    keys = P.support.copy()
    vals = P.coeffs.copy()
    for _ in range(p // 2 - 1):
        if len(keys) * len(P.support) > budget:
            raise CapacityError("convolution exceeds the configured budget")
        grid = (keys[:, None] + P.support[None, :]).ravel()
        prod = (vals[:, None] * P.coeffs[None, :]).ravel()
        keys, inv = np.unique(grid, return_inverse=True)
        vals = np.zeros(len(keys), dtype=np.complex128)
        np.add.at(vals, inv, prod)
    return float(np.sum(np.abs(vals) ** 2))


def lower_bound_lowfreq(A, p: float, N: int | None = None) -> float:
    """Certified lower bound for || sum_{n in A} e(n .) ||_p from the
    frequency window |xi| <= 1/(100 N).

    Composite Gauss-Legendre quadrature, 8 panels of 64 nodes; the
    integrand is analytic and nonvanishing there (every phase turns by
    less than 1/100 of a cycle), so a fixed rule already has negligible
    error; one refinement is done to confirm.

    The sum is taken from power moments: with z = 2 pi i N xi,
    S(xi) = sum_k z^k / k! * sum_{n in A} (n/N)^k over k < 16
    (_LOWFREQ_TERMS).  As |z| <= 2 pi/100 and n <= N, the terms from
    k = 16 on add at most |A| |z|^16 / 16! * e^|z| < |A| * 1e-32 to |S|,
    far below the roundoff of S itself, so the bound stays certified.
    """
    A = np.asarray(A, dtype=np.int64)
    if len(A) == 0:
        raise ValueError("A must be nonempty")
    if N is None:
        N = max(int(A[-1]), 1)
    if int(A[-1]) > N:
        raise ValueError("max(A) must not exceed N")
    half = 1.0 / (100.0 * N)
    ratio = A.astype(np.float64) / N
    power = np.ones(len(A))
    # moments[k] = sum of (n/N)^k over A, divided by k!
    moments = []
    for k in range(_LOWFREQ_TERMS):
        moments.append(float(np.sum(power)) / math.factorial(k))
        power *= ratio

    def integral(num_panels):
        x, w = np.polynomial.legendre.leggauss(64)
        edges = np.linspace(-half, half, num_panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            z = 2j * np.pi * N * (0.5 * (b - a) * x + 0.5 * (a + b))
            vals = np.abs(np.polynomial.polynomial.polyval(z, moments)) ** p
            total += 0.5 * (b - a) * float(w @ vals)
        return total

    v1 = integral(8)
    v2 = integral(16)
    if abs(v2 - v1) > 1e-8 * max(abs(v2), 1e-300):
        v1, v2 = v2, integral(32)
    return float(v2 ** (1.0 / p))


# ---------------------------------------------------------------- measures


@dataclass
class DiscreteMeasure:
    """Finitely supported measure on the integers with positive masses."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.int64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.atoms.shape != self.masses.shape:
            raise ValueError("atoms and masses must match")
        if len(self.atoms) and np.any(np.diff(self.atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if not np.all(np.isfinite(self.masses)) or np.any(self.masses <= 0):
            raise ValueError("masses must be finite and positive")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def measure_mu(bset: SparseSet) -> DiscreteMeasure:
    """Atoms on the set, masses psi(n)^{-1} / N."""
    if bset.psi is None:
        raise ValueError("set was built without a window")
    n = bset.members.astype(np.float64)
    masses = 1.0 / (np.asarray(bset.psi(n), dtype=np.float64) * bset.spec.N)
    return DiscreteMeasure(bset.members, masses)


def measure_nu(N: int) -> DiscreteMeasure:
    """Uniform measure on [1, N] with masses 1/N."""
    return DiscreteMeasure(np.arange(1, N + 1, dtype=np.int64),
                           np.full(N, 1.0 / N))


def fourier_of_measure(m: DiscreteMeasure, xis) -> np.ndarray:
    """sum of mass * e(xi * atom) at every xi, compensated phases."""
    return weighted_sums(
        ((m.atoms[a:a + CHUNK].astype(np.float64), m.masses[a:a + CHUNK])
         for a in range(0, len(m.atoms), CHUNK)), xis)


def _first_grid_max(support: np.ndarray, coeff_rows, cosets: int = 8,
                    k: int = 0, sums: np.ndarray | None = None
                    ) -> tuple[np.ndarray, int]:
    """max of |P| for P = sum of row * e(n xi) over the support, one per
    row of `coeff_rows`, on the grid xi = j/K of K = cosets * M points,
    M = _start_grid(support[-1]) / 8, and K.  At the default 8 cosets
    this is lp_norm's first grid.  With k >= 1, sums[i] also receives the
    sum of |P|^(2k) over the grid for row i.  The grid is taken as its
    cosets of one `_grid_dft` of length M; the loop over cosets is the
    outer one, so each turn e(n r/K) is built once and applied to every
    row, and only one turn vector is alive at a time."""
    M = _start_grid(int(support[-1])) // 8
    K = cosets * M
    values, _ = _grid_dft(support, M)
    top = np.zeros(len(coeff_rows))
    for r in range(cosets):
        turn = np.exp(2j * np.pi * (((support * r) % K) / K))
        for i, row in enumerate(coeff_rows):
            mags = np.abs(values(row * turn))
            top[i] = max(top[i], float(np.max(mags)))
            if k:
                # |P|^(2k) as (|P|^2)^k; a float exponent keeps k = 2 a square
                np.square(mags, out=mags)
                sums[i] += np.sum(np.power(mags, float(k), out=mags))
            # freed before the next row's product row * turn is built, so
            # the two never coexist: for the dense support of
            # fourier_sup_of_difference each takes 8 M bytes
            del mags
    return top, K


def fourier_sup_of_difference(m1: DiscreteMeasure,
                              m2: DiscreteMeasure) -> tuple[float, int]:
    """max of |F(m1 - m2)| on lp_norm's first grid, and that grid's size
    (`_first_grid_max`)."""
    top = int(max(m1.atoms[-1] if len(m1.atoms) else 0,
                  m2.atoms[-1] if len(m2.atoms) else 0))
    coeff = np.zeros(top + 1, dtype=np.complex128)
    np.add.at(coeff, m1.atoms, m1.masses)
    np.add.at(coeff, m2.atoms, -m2.masses)
    sup, K = _first_grid_max(np.arange(top + 1), [coeff])
    return float(sup[0]), K


def _lp_norm_bounds(support: np.ndarray, coeff_rows: np.ndarray,
                    p: float) -> np.ndarray:
    """Upper bounds on ||P||_p, p >= 2, for P = sum of row * e(n .) over
    the support, one per row of the 2-d `coeff_rows`:
    (S / (1 - pi D / (2 K)))^(1 - 2k/p) * ||P||_2k^(2k/p), with D =
    support[-1] and 2k, S and K as in the module docstring.  For k >= 2
    one `_first_grid_max` pass gives S and ||P||_2k^2k, the mean of
    |P|^2k over its K = c M points.  Tight at p = 2, 4, 6 and 8, up to
    rounding; at p = inf (taken as k = 1) it is the sup bound itself."""
    D = int(support[-1])
    k = 1 if math.isinf(p) else min(int(p) // 2, 8)
    if k == 1:
        S, K = _first_grid_max(support, coeff_rows)
        l2 = np.sqrt(np.sum(np.abs(coeff_rows) ** 2, axis=1))
        moment_part = l2 ** (2.0 / p)
    else:
        M = _start_grid(D) // 8
        cosets = 2
        while cosets * M <= k * D:
            cosets *= 2
        sums = np.zeros(len(coeff_rows))
        S, K = _first_grid_max(support, coeff_rows, cosets, k, sums)
        moment_part = (sums / K) ** (1.0 / p)
    sup = S / (1.0 - math.pi * D / (2 * K))
    return sup ** (1.0 - 2 * k / p) * moment_part


# --------------------------------------------------- restriction operators


def extension_poly(f_vals, m: DiscreteMeasure) -> TrigPoly:
    """The trigonometric polynomial F(f m): coefficients f(n) m(n) on the
    atoms; its values are the extension operator applied to f."""
    f_vals = np.asarray(f_vals, dtype=np.complex128)
    if f_vals.shape != m.atoms.shape:
        raise ValueError("f must be given on the atoms of the measure")
    return TrigPoly(m.atoms.copy(), f_vals * m.masses)


def apply_extension(f_vals, m: DiscreteMeasure, xi_grid) -> np.ndarray:
    """Sample F(f m) at explicit frequencies."""
    return extension_poly(f_vals, m).evaluate(xi_grid)


def ttstar_apply(f: TrigPoly, m: DiscreteMeasure) -> TrigPoly:
    """T T* f: multiply each Fourier coefficient of f by the mass at its
    frequency (convolution with F(m) on the frequency side)."""
    if len(m.atoms) == 0:
        return TrigPoly(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.complex128))
    idx = np.searchsorted(m.atoms, f.support)
    idx_c = np.clip(idx, 0, len(m.atoms) - 1)
    hit = (idx < len(m.atoms)) & (m.atoms[idx_c] == f.support)
    masses = np.where(hit, m.masses[idx_c], 0.0)
    keep = masses != 0.0
    return TrigPoly(f.support[keep], f.coeffs[keep] * masses[keep])


def l2_norm_weighted(f_vals, m: DiscreteMeasure) -> float:
    """||f|| in L2 of the measure."""
    f_vals = np.asarray(f_vals, dtype=np.complex128)
    return float(np.sqrt(np.sum(np.abs(f_vals) ** 2 * m.masses)))


def restriction_ratio_max(bset: SparseSet, p: float, trials: int = 16,
                          seed: int = 0, tol: float = 1e-8,
                          cap: int = GRID_CAP_DEFAULT) -> float:
    """The largest ||F(f mu_N)||_p * N^(1/p) / ||f||_{L2(mu_N)} over
    `trials` seeded test functions on the set: the all-ones choice first,
    then standard complex normal coefficients with seeds
    derive_seed(derive_seed(seed, N), t), t = 1..trials-1.

    For p >= 2 the random f are bounded first, all in one call of
    `_lp_norm_bounds`: Bernstein's sup bound and the exact L^2k norm,
    2k the largest even integer <= p, joined by Hoelder (module
    docstring).  Going through the trials in order, an f whose bounded
    ratio times 1 + 10 tol stays below the best ratio so far is skipped
    without its quadrature.  It cannot be the
    maximum, so the value equals the maximum over a full loop of
    `lp_norm` calls, bit for bit.  An empty set raises ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    N = bset.spec.N
    if len(bset) == 0:
        raise ValueError(f"the set is empty at N = {N}: no ratio is defined")
    mu = measure_mu(bset)

    def ratio(f, den):
        P = extension_poly(f, mu)
        return lp_norm(P, p, tol=tol, cap=cap).value * N ** (1.0 / p) / den

    # all-ones first: its lp_norm also checks p and tol
    ones = np.ones(len(mu.atoms), dtype=np.complex128)
    best = ratio(ones, l2_norm_weighted(ones, mu))
    fs = []
    for t in range(1, trials):
        rng = np.random.default_rng(derive_seed(derive_seed(seed, N), t))
        fs.append((rng.standard_normal(len(mu.atoms))
                   + 1j * rng.standard_normal(len(mu.atoms))) / math.sqrt(2.0))
    dens = [l2_norm_weighted(f, mu) for f in fs]
    bounds = np.full(len(fs), np.inf)
    if p >= 2 and fs:
        rows = np.array([f * mu.masses for f in fs])
        norms = _lp_norm_bounds(mu.atoms, rows, p)
        bounds = norms * N ** (1.0 / p) / np.array(dens) * (1.0 + 10.0 * tol)
    for f, den, bound in zip(fs, dens, bounds):
        if bound >= best:
            best = max(best, ratio(f, den))
    return best
