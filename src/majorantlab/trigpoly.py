"""Trigonometric polynomials on the torus and the discrete restriction pair.

L^p norms are computed by uniform sampling (the periodic rectangle rule).
lp_norm and the test-function bounds take one transform length, M =
`_grid_length(D)`, the smallest power of two above the degree D, and
read a grid of K points, a multiple of M, as K/M cosets of the grid of M
points: the coset at offset r/K is one length-M inverse DFT of the
coefficients turned by e(n r/K), and `_coset_walker` is the one loop that
builds those turns for coefficients on a sparse support.
lp_norm's grid starts at K = 8 M and doubles until the value stabilizes;
a doubling walks only its new odd cosets and adds them to the running sum
of |P|^p, so every point is computed once.  Real coefficients give
|P(-x)| = |P(x)|, which pairs coset r with K/M - r, and then only the
cosets r <= K/(2M) are walked (`_coset_plan`).  A length-M DFT is one
FFT of length M below SPLIT_AT points; from SPLIT_AT on it is split into
FFTs of lengths M1 and M2 = M/M1 on an (M1, M2) array, M1 about
sqrt(M), which keep to the cache where one FFT of length M does not
(`_grid_dft`; the
phase ascent of `majorant` uses the same transform on K = max(256, 2 M)).
The sup of mu_N - nu_N reads lp_norm's first grid for the degree N, but
its dense real coefficients take a transform of length `_grid_length` of
their span, walked on the same half of the cosets, and fill that
one buffer BLOCK frequencies at a time (`fourier_sup_of_difference`).
For even p the rule is exact as soon as the grid exceeds p*D points, since
|P|^p is itself a trigonometric polynomial of degree p*D; the even-p route
through iterated coefficient convolution is kept as an independent oracle.

The measures mu_N (atoms on a sparse set, masses 1/(N psi(n))) and nu_N
(uniform on [1, N]) drive the extension operator f -> F(f mu) and its
T T* composition, which multiplies Fourier coefficients by the measure's
masses.  `restriction_sweep`, run by prop2 and criterion 9 alike, builds
mu_N once per N and measures the restriction estimate's two rows on it.

The restriction row is the largest ratio ||F(f mu_N)||_p N^(1/p) /
||f||_{L2(mu_N)} over seeded test functions f, all-ones first.  A random
f gets its quadrature only if a certified upper bound on its ratio
reaches the best ratio found so far.  For P of degree D, S = max |P| on
a grid of K > pi D / 2 points bounds the sup norm: Bernstein's
inequality for e(-D x/2) P, of exponential type pi D, gives
||P||_inf <= S / (1 - pi D / (2 K)).  For p >= 2, with 2k the largest
even integer <= p (at most 16), Hoelder between L^2k and L^inf gives
||P||_p^p <= ||P||_inf^(p-2k) ||P||_2k^2k.  One walk of K = c M points
gives both S and the mean of |P|^2k, which is ||P||_2k^2k exactly once
c M > k D, as |P|^2k has degree k D.  For k = 1 (2 <= p < 4) the walk is
lp_norm's first grid, c = 8, so the factor is at most 1/(1 - pi/16); for
k >= 2, c >= 2 is the smallest power of two with c M > k D.  At p = 4.2
that is 2 of the 8 cosets of the first grid, and Bernstein's factor, up
to 1/(1 - pi/4), enters only to the power 1 - 4/p.  For p < 2 no such
bound follows, and every f gets its quadrature.  A bound below the best
ratio by a factor 1 + 10 tol, the quadrature tolerance, skips the f: the
margin covers FFT rounding and lp_norm's own stopping error, so the row
is the maximum of the full loop, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compensated import frac_product
from .errors import CapacityError, ConvergenceError
from .expsum import weighted_sums
from .rvfunc import BLOCK, CHUNK
from .sparseset import SparseSet
from .sweeps import SweepResult, derive_seed, per_row, sweep

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
            if self.support[0] < 0 or np.any(np.diff(self.support) <= 0):
                raise ValueError(
                    "support must be strictly increasing and nonnegative")
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

    def l2_coeff_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


@dataclass
class QuadratureResult:
    value: float
    grid_size: int
    refinement_error: float


def _grid_length(degree: int) -> int:
    """M, the smallest power of two above the degree: the length of every
    transform that samples a polynomial of that degree (`_coset_walker`)."""
    return 1 << int(degree).bit_length()


def _dft_buffer(M: int):
    """(buf, twiddle) of a length-M grid DFT (`_grid_dft`).  buf is an
    (M1, M2) array holding frequency n at [n mod M1, n div M1]: M1 = M and
    M2 = 1 below SPLIT_AT, else M1 = 2^floor(log2(M)/2) and M2 = M/M1.
    twiddle[n1, j2] = e(n1 j2/M) (None below SPLIT_AT) is built row by
    row into its own array, so no temporary of its size is made."""
    if M < SPLIT_AT:
        return np.empty((M, 1), dtype=np.complex128), None
    M1 = 1 << (M.bit_length() - 1) // 2
    M2 = M // M1
    twiddle = np.empty((M1, M2), dtype=np.complex128)
    j2 = np.arange(M2)
    for n1, row in enumerate(twiddle):
        np.exp((2j * np.pi / M) * (n1 * j2), out=row)
    return np.empty((M1, M2), dtype=np.complex128), twiddle


def _dft_values(buf: np.ndarray, twiddle) -> np.ndarray:
    """The grid values of the coefficients laid out in `buf`
    (`_dft_buffer`), computed in place; returns buf as a flat array in
    grid order, grid point j at [j div M2, j mod M2]."""
    flat = buf.reshape(-1)
    if twiddle is None:
        return np.fft.ifft(flat, norm="forward", out=flat)
    np.fft.ifft(buf, axis=1, norm="forward", out=buf)
    np.multiply(buf, twiddle, out=buf)
    np.fft.ifft(buf, axis=0, norm="forward", out=buf)
    return flat


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
    the grid is an (M1, M2) array (`_dft_buffer`).  `values` runs FFTs of
    length M2 along axis 1, multiplies by the twiddles e(n1 j2/M) and runs
    FFTs of length M1 along axis 0 (`_dft_values`); `at_support` runs the
    same steps in reverse order.  Every FFT is np.fft.ifft with
    norm="forward", i.e. unscaled."""
    buf, twiddle = _dft_buffer(M)
    M1, M2 = buf.shape
    flat = buf.reshape(M)
    at = support if twiddle is None else (support % M1) * M2 + support // M1

    def values(coeffs) -> np.ndarray:
        flat.fill(0.0)
        flat[at] = coeffs
        return _dft_values(buf, twiddle)

    def at_support(grid: np.ndarray) -> np.ndarray:
        if twiddle is None:
            return np.fft.ifft(grid, norm="forward", out=grid)[at]
        g = grid.reshape(buf.shape)
        np.fft.ifft(g, axis=0, norm="forward", out=g)
        np.multiply(g, twiddle, out=g)
        np.fft.ifft(g, axis=1, norm="forward", out=g)
        return grid[at]

    return values, at_support


def _coset_walker(support: np.ndarray, M: int):
    """walk(coeff_rows, K, cosets): for each r of `cosets` in turn, and for
    each row of `coeff_rows`, the sum of row * e(n xi) over the support at
    xi = j/M + r/K, j < M, in grid order: the length-M transform
    (`_grid_dft`) of the row turned by e(n r/K).  Every n must lie below
    M, and M must divide K.  The turn is built once per coset, and one
    buffer serves every walk, so each yielded array is overwritten by the
    next."""
    values, _ = _grid_dft(support, M)

    def walk(coeff_rows, K: int, cosets):
        for r in cosets:
            turn = np.exp(2j * np.pi * (((support * r) % K) / K))
            for row in coeff_rows:
                yield values(row * turn)

    return walk


def _coset_plan(cosets, n: int, real: bool):
    """[(r, weight)] for a walk over `cosets` of a grid of n cosets (the
    set closed under r -> n - r mod n when `real`).  A polynomial with
    real coefficients has |P(-x)| = |P(x)|, and -(j/M + r/K) is a point
    of coset n - r, so for it only r <= n/2 are walked: the self-paired
    r = 0 and n/2 at weight 1, every other r at weight 2 for its pair.
    Otherwise every coset, at weight 1."""
    if not real:
        return [(r, 1) for r in cosets]
    return [(r, 1 if 2 * r % n == 0 else 2) for r in cosets if 2 * r <= n]


def check_tol(tol: float) -> None:
    """The one rule for a quadrature tolerance: tol in [1e-12, 1e-2]."""
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError(f"tol must lie in [1e-12, 1e-2], got {tol}")


def lp_norm(P: TrigPoly, p: float, tol: float = 1e-8,
            cap: int = GRID_CAP_DEFAULT) -> QuadratureResult:
    """(integral of |P|^p over the torus)^(1/p) by doubling rectangle rule.

    The K-point grid, K = 8 M at first with M = _grid_length(degree), is
    walked as K/M cosets (`_coset_walker`), one length-M inverse DFT each
    (one FFT below SPLIT_AT, two passes of shorter FFTs from it on); a
    doubling walks only its K/M new odd cosets and adds their |P|^p to the
    running sum, so every grid point is computed once.  When no
    coefficient has an imaginary part, |P(-x)| = |P(x)| and only the
    cosets r <= K/(2M) of each walk are transformed, every r but 0 and
    K/(2M) at weight 2 for its mirror K/M - r (`_coset_plan`): the same
    grids and values up to the order of the sums, in a little over half
    the transforms.  The rule stops on the relative change between
    successive grids, or at once for even p when K exceeds p * degree."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    check_tol(tol)
    if len(P.support) == 0:
        return QuadratureResult(0.0, 0, 0.0)
    M = _grid_length(P.degree)
    K = 8 * M
    walk = _coset_walker(P.support, M)
    real = not np.any(P.coeffs.imag)
    mags = np.empty(M)
    # |P|^p at j/M + r/K summed over the cosets r sampled so far, per j,
    # a paired coset counted twice
    power = np.zeros(M)
    even = p == int(p) and int(p) % 2 == 0
    new_cosets = range(8)
    prev = None
    while True:
        plan = _coset_plan(new_cosets, K // M, real)
        for (_, weight), vals in zip(plan, walk([P.coeffs], K,
                                                [r for r, _ in plan])):
            np.abs(vals, out=mags)
            with np.errstate(over="ignore"):
                np.power(mags, p, out=mags)
                if weight > 1:
                    mags *= weight
                power += mags
        value = float((np.sum(power) / K) ** (1.0 / p))
        # a nonzero P has fewer than M roots, so a zero sum is underflow
        if not 0 < value < math.inf and np.any(P.coeffs):
            raise ValueError(f"|P|^p leaves the double range at p = {p}")
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


def even_p_oracle(P: TrigPoly, p: int) -> float:
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
        if len(keys) * len(P.support) > _CONV_BUDGET:
            raise CapacityError("convolution exceeds its budget")
        grid = (keys[:, None] + P.support[None, :]).ravel()
        prod = (vals[:, None] * P.coeffs[None, :]).ravel()
        keys, inv = np.unique(grid, return_inverse=True)
        vals = np.zeros(len(keys), dtype=np.complex128)
        np.add.at(vals, inv, prod)
    return float(np.sum(np.abs(vals) ** 2))


def lower_bound_lowfreq(A, p: float, N: int) -> float:
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

    x, w = np.polynomial.legendre.leggauss(64)

    def integral(num_panels):
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


def _first_grid_max(support: np.ndarray, coeff_rows, cosets: int,
                    k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(top, sums, K) for P = sum of row * e(n xi) over the support, one
    per row of `coeff_rows`, on the grid xi = j/K of K = cosets * M points,
    M = _grid_length(support[-1]): top[i] is the max of |P| for row i and
    sums[i] the sum of |P|^(2k) over the grid, k >= 1.  The grid is walked
    by `_coset_walker`, coset by coset, so each turn e(n r/K) is built once
    and applied to every row."""
    M = _grid_length(int(support[-1]))
    K = cosets * M
    top, sums = np.zeros(len(coeff_rows)), np.zeros(len(coeff_rows))
    mags = np.empty(M)
    walk = _coset_walker(support, M)
    for t, vals in enumerate(walk(coeff_rows, K, range(cosets))):
        i = t % len(coeff_rows)
        np.abs(vals, out=mags)
        top[i] = max(top[i], float(np.max(mags)))
        # |P|^(2k) as (|P|^2)^k; a float exponent keeps k = 2 a square
        np.square(mags, out=mags)
        sums[i] += np.sum(np.power(mags, float(k), out=mags))
    return top, sums, K


def fourier_sup_of_difference(mu: DiscreteMeasure, N: int) -> tuple[float, int]:
    """max of |F(mu - nu_N)| on lp_norm's first grid for the degree N, of
    K = 8 _grid_length(N) points, and K.  nu_N is taken as given: the
    coefficients are -1/N on 1..N, plus mu's masses (atoms in [0, N]).

    The coefficients are real and start at s = min(1, first atom), so the
    transform takes the frequencies n - s (|P| does not change under
    modulation), of length M = _grid_length(N - s): N for N = 2^L.  As
    |P(-x)| = |P(x)|, the cosets r and K/M - r of the grid hold the same
    moduli, and only r = 0..K/(2M) are walked (`_coset_plan`; a max
    needs no weights).  Each coset's buffer is filled BLOCK frequencies
    at a time (coefficient times turn
    e((n - s) r/K), the turn factored as e(a r/K) e((n - s - a) r/K) for
    the block starting at a), so nothing of the support's length is
    kept."""
    if len(mu.atoms) and not 0 <= mu.atoms[0] <= mu.atoms[-1] <= N:
        raise ValueError(f"the atoms of mu must lie in [0, {N}]")
    s = 0 if len(mu.atoms) and mu.atoms[0] == 0 else 1
    K, M = 8 * _grid_length(N), _grid_length(N - s)
    buf, twiddle = _dft_buffer(M)
    M1 = buf.shape[0]
    L = min(BLOCK, M)
    k = np.arange(L, dtype=np.float64)
    coeff = np.empty(L)
    step = np.empty(L, dtype=np.complex128)
    turned = np.empty_like(step)
    sup = 0.0
    for r, _ in _coset_plan(range(K // M), K // M, True):
        # every turn e(m r/K), m < M, has m r < K/2: no reduction mod K
        np.exp(np.multiply(k, 2j * np.pi * r / K, out=step), out=step)
        for a in range(0, M, L):
            # the frequencies n = s + a .. s + a + L - 1
            coeff.fill(0.0)
            coeff[max(1 - s - a, 0):max(N + 1 - s - a, 0)] = -1.0 / N
            i, j = np.searchsorted(mu.atoms, (s + a, s + a + L))
            coeff[mu.atoms[i:j] - (s + a)] += mu.masses[i:j]
            np.multiply(step, np.exp(2j * np.pi * a * r / K), out=turned)
            turned *= coeff
            # frequency a + q M1 + n1 sits at [n1, a/M1 + q]
            buf[:, a // M1:(a + L) // M1] = turned.reshape(-1, M1).T
        vals = _dft_values(buf, twiddle)
        # the filled buffer frees coeff, which takes |vals| block by block
        for b in range(0, M, L):
            sup = max(sup, float(np.max(np.abs(vals[b:b + L], out=coeff))))
    return sup, K


def _lp_norm_bounds(support: np.ndarray, coeff_rows: np.ndarray,
                    p: float) -> np.ndarray:
    """Upper bounds on ||P||_p, p >= 2, for P = sum of row * e(n .) over
    the support, one per row of the 2-d `coeff_rows`:
    (S / (1 - pi D / (2 K)))^(1 - 2k/p) * ||P||_2k^(2k/p), with D =
    support[-1] and 2k, S and K as in the module docstring.  One
    `_first_grid_max` pass gives S and ||P||_2k^2k, the mean of |P|^2k
    over its K = c M points.  Tight at p = 2, 4, 6 and 8, up to rounding;
    at p = inf (taken as k = 1) it is the sup bound itself."""
    D = int(support[-1])
    k = 1 if math.isinf(p) else min(int(p) // 2, 8)
    M = _grid_length(D)
    cosets = 8 if k == 1 else 2
    while cosets * M <= k * D:
        cosets *= 2
    S, sums, K = _first_grid_max(support, coeff_rows, cosets, k)
    sup = S / (1.0 - math.pi * D / (2 * K))
    return sup ** (1.0 - 2 * k / p) * (sums / K) ** (1.0 / p)


# --------------------------------------------------- restriction operators


def extension_poly(f_vals, m: DiscreteMeasure) -> TrigPoly:
    """The trigonometric polynomial F(f m): coefficients f(n) m(n) on the
    atoms; its values are the extension operator applied to f."""
    f_vals = np.asarray(f_vals, dtype=np.complex128)
    if f_vals.shape != m.atoms.shape:
        raise ValueError("f must be given on the atoms of the measure")
    return TrigPoly(m.atoms.copy(), f_vals * m.masses)


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


def restriction_ratio_max(mu: DiscreteMeasure, N: int, p: float,
                          trials: int = 16, seed: int = 0, tol: float = 1e-8,
                          cap: int = GRID_CAP_DEFAULT) -> float:
    """The largest ||F(f mu)||_p * N^(1/p) / ||f||_{L2(mu)} over `trials`
    seeded test functions on the atoms of mu = mu_N: the all-ones choice
    first, then standard complex normal coefficients with seeds
    derive_seed(derive_seed(seed, N), t), t = 1..trials-1.

    For p >= 2 the random f are bounded first, all in one call of
    `_lp_norm_bounds`: Bernstein's sup bound and the exact L^2k norm,
    2k the largest even integer <= p, joined by Hoelder (module
    docstring).  Going through the trials in order, an f whose bounded
    ratio times 1 + 10 tol stays below the best ratio so far is skipped
    without its quadrature.  It cannot be the maximum, so the value equals
    the maximum over a full loop of `lp_norm` calls, bit for bit.  An
    empty measure raises ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(mu.atoms) == 0:
        raise ValueError(f"the set is empty at N = {N}: no ratio is defined")

    def ratio(P, den):
        return lp_norm(P, p, tol=tol, cap=cap).value * N ** (1.0 / p) / den

    # all-ones first: its lp_norm also checks p and tol
    ones = np.ones(len(mu.atoms), dtype=np.complex128)
    best = ratio(extension_poly(ones, mu), l2_norm_weighted(ones, mu))
    # row t - 1 holds the coefficients f * masses of the t-th f
    rows = np.empty((trials - 1, len(mu.atoms)), dtype=np.complex128)
    dens = np.empty(trials - 1)
    for t, row in enumerate(rows, 1):
        rng = np.random.default_rng(derive_seed(derive_seed(seed, N), t))
        f = (rng.standard_normal(len(mu.atoms))
             + 1j * rng.standard_normal(len(mu.atoms))) / math.sqrt(2.0)
        dens[t - 1] = l2_norm_weighted(f, mu)
        np.multiply(f, mu.masses, out=row)
    bounds = np.full(trials - 1, np.inf)
    if p >= 2 and trials > 1:
        norms = _lp_norm_bounds(mu.atoms, rows, p)
        bounds = norms * N ** (1.0 / p) / dens * (1.0 + 10.0 * tol)
    for row, den, bound in zip(rows, dens, bounds):
        if bound >= best:
            best = max(best, ratio(TrigPoly(mu.atoms, row), den))
    return best


def restriction_sweep(build_set_fn, p: float, N_list, trials: int = 16,
                      seed: int = 0, tol: float = 1e-8,
                      cap: int = GRID_CAP_DEFAULT,
                      workers: int = 1) -> list[SweepResult]:
    """The prop2 rows restriction_ratio_max and mu_nu_fourier_sup of every
    N of N_list, in its order.  build_set_fn(N) -> SparseSet; one
    sweeps.sweep task per N builds the set and its mu_N once.  The rows
    of one quantity share the log-log slope of their values against N."""
    def task(N):
        bset = build_set_fn(N)
        mu = measure_mu(bset)
        ratio = restriction_ratio_max(mu, N, p, trials, seed, tol, cap)
        sup, grid = fourier_sup_of_difference(mu, N)
        return [SweepResult(
            experiment="prop2", quantity="restriction_ratio_max", value=ratio,
            seed=seed, borderline_count=bset.borderline_count,
            params={"N": N, "p": p, "trials": trials, "set_size": len(bset)},
        ), SweepResult(
            experiment="prop2", quantity="mu_nu_fourier_sup", value=sup,
            seed=seed, params={"N": N, "p": p, "grid": grid})]

    return sweep([int(N) for N in N_list], task, per_row(lambda r: r.value),
                 key=lambda r: r.quantity, workers=workers)
