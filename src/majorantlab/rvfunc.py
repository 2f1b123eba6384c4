"""Regularly varying functions h(x) = x^c * ell(x), inverses, and the window psi.

Supported slowly varying factors, each with its logarithmic-derivative
kernel theta(x) = x * ell'(x) / ell(x) in closed form:

    log_power       ell(x) = (log x)^B            theta(x) = B / log x
    exp_log_power   ell(x) = exp(B (log x)^C)     theta(x) = B C (log x)^(C-1)
    iterated_log    ell(x) = l_m(x)               theta(x) = 1 / (l_1 ... l_m)(x)
    constant_one    ell(x) = 1                    theta(x) = 0

with l_1 = log and l_{m+1} = log . l_m.  Derivatives of h follow from
the exp-chain rule: with v = (c + theta)/x (the log-derivative of h),

    h'/h   = v
    h''/h  = v' + v^2
    h'''/h = v'' + 3 v v' + v^3

Inverses are computed with a safeguarded Newton iteration that freezes
each point at its first iterate within tolerance, so a point's result
does not depend on the array it is solved in; an extended-precision
residual correction yields head/tail value pairs accurate enough to take
fractional parts of phi(n) for n up to ~1e8.  The difference window
psi(n) = phi(n+1) - phi(n) on a run of consecutive n takes one solve
over the run and its successor, and `pairs_and_window` hands out phi1's
pairs from that solve when psi is phi1's own window.  Where a point's
phi is needed only to within about 2^-31 relative, `InverseFn.enclose`
gives a certified double-precision enclosure instead, without the
extended-precision correction.  Index scans walk `index_chunks`: CHUNK
runs fix the bits of sums, BLOCK runs bound memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

ELL_KINDS = ("log_power", "exp_log_power", "iterated_log", "constant_one")

# kinds whose ell is positive, eventually increasing to infinity
_UNBOUNDED_KINDS = ("log_power", "exp_log_power", "iterated_log")


def _as_array(x):
    a = np.asarray(x, dtype=np.float64)
    return a, a.ndim == 0


def _ret(a, scalar):
    return float(a) if scalar else a


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """One member of the slowly varying families above.  It has no domain
    start of its own: RegVaryFn finds where h = x^c ell is usable."""

    kind: str
    B: float = 1.0
    C: float = 0.5
    m: int = 1

    def __post_init__(self):
        if self.kind not in ELL_KINDS:
            raise ValueError(f"unknown slowly varying kind {self.kind!r}")
        if self.kind in ("log_power", "exp_log_power") and not self.B > 0:
            raise ValueError("B must be positive")
        if self.kind == "exp_log_power" and not 0 < self.C < 1:
            raise ValueError("C must lie in (0, 1)")
        if self.kind == "iterated_log" and (self.m < 1 or self.m != int(self.m)):
            raise ValueError("m must be a positive integer")

    # -- raw evaluations, no domain checks (RegVaryFn checks its own) -----

    def _ell_raw(self, x):
        """ell in the precision of x (float64 or longdouble)."""
        if self.kind == "log_power":
            return np.log(x) ** self.B
        if self.kind == "exp_log_power":
            return np.exp(self.B * np.log(x) ** self.C)
        if self.kind == "iterated_log":
            v = np.log(x)
            for _ in range(self.m - 1):
                v = np.log(v)
            return v
        return np.ones_like(x)

    def _theta_raw(self, x, order):
        t = np.log(x)
        if self.kind == "constant_one":
            return np.zeros_like(x)
        if self.kind == "log_power":
            B = self.B
            if order == 0:
                return B / t
            if order == 1:
                return -B / (x * t**2)
            return B * (t + 2) / (x**2 * t**3)
        if self.kind == "exp_log_power":
            B, C = self.B, self.C
            if order == 0:
                return B * C * t ** (C - 1)
            if order == 1:
                return B * C * (C - 1) * t ** (C - 2) / x
            return B * C * (C - 1) * t ** (C - 3) * ((C - 2) - t) / x**2
        # iterated_log: theta = 1/Q_m with Q_j = l_1 * ... * l_j
        Q = []
        v = t
        q = v.copy()
        Q.append(q.copy())
        for _ in range(self.m - 1):
            v = np.log(v)
            q = q * v
            Q.append(q.copy())
        Qm = Q[-1]
        if order == 0:
            return 1.0 / Qm
        # A = Q_m'/Q_m = sum_j 1/(x Q_j); A_j the same truncated at j
        inv_xQ = [1.0 / (x * Qj) for Qj in Q]
        A = np.sum(inv_xQ, axis=0)
        if order == 1:
            return -A / Qm
        Apartial = np.cumsum(inv_xQ, axis=0)  # A_j rows
        T = np.sum([1.0 / Qj for Qj in Q], axis=0)
        Aprime = -T / x**2 - np.sum(
            [Apartial[j] / Q[j] for j in range(self.m)], axis=0
        ) / x
        return (A * A - Aprime) / Qm

    def kv_items(self):
        items = [("family", self.kind)]
        if self.kind in ("log_power", "exp_log_power"):
            items.append(("B", format(self.B, "g")))
        if self.kind == "exp_log_power":
            items.append(("C", format(self.C, "g")))
        if self.kind == "iterated_log":
            items.append(("m", str(self.m)))
        return items


class RegVaryFn:
    """Increasing convex h(x) = x^c * ell(x) on [x0, infinity).

    The domain start is the smallest power of two from 2 to 2^103 at which
    h is finite and positive, h' > 0 and h'' >= 0 on a log-spaced probe
    grid, so every instance is increasing and convex by construction.
    With c == 1 the slowly varying factor must be one of the unbounded
    kinds; pass check=False to build degenerate objects (e.g. the
    identity) for calibration purposes.  Instances with equal c, ell and
    x0 are equal.
    """

    def __init__(self, c: float, ell: SlowlyVaryingSpec, x0: float | None = None,
                 check: bool = True):
        if not 0 < c < 2:
            raise ValueError("exponent c must lie in (0, 2)")
        if check and c == 1.0 and ell.kind not in _UNBOUNDED_KINDS:
            raise ValueError("c = 1 requires a slowly varying factor growing to infinity")
        self.c = float(c)
        self.ell = ell
        if x0 is None:
            self.x0 = self._find_x0()
        else:
            # explicit starts below 2 are allowed (e.g. pure powers from 1)
            # provided h is still increasing and convex there
            if x0 < 1:
                raise ValueError("x0 must be >= 1")
            self.x0 = float(x0)
            if check:
                self._validate_domain_start()

    def _increasing_convex_from(self, x0) -> bool:
        """Whether h is finite and positive, h' > 0 and h'' >= 0 on a
        96-point log-spaced probe grid from x0 to max(1e12, 16 x0)."""
        grid = np.exp(np.linspace(np.log(x0), np.log(max(1e12, 16 * x0)), 96))
        with np.errstate(all="ignore"):
            d0 = self._deriv_raw(grid, 0)
            d1 = self._deriv_raw(grid, 1)
            d2 = self._deriv_raw(grid, 2)
        # h'' is assembled from terms of size ~ h/x^2, so "nonnegative"
        # means nonnegative up to that roundoff scale
        floor = -1e-13 * np.abs(d0) / grid**2
        return bool(np.isfinite(d0).all() and np.isfinite(d1).all()
                    and np.isfinite(d2).all() and (d0 > 0).all()
                    and (d1 > 0).all() and (d2 >= floor).all())

    def _validate_domain_start(self):
        if not self._increasing_convex_from(self.x0):
            raise ValueError(f"h is not increasing and convex from x0={self.x0}")

    def _find_x0(self) -> float:
        x0 = 2.0
        for _ in range(103):
            if self._increasing_convex_from(x0):
                return x0
            x0 *= 2.0
        raise ValueError("no domain start with h increasing and convex found")

    def value(self, x):
        return self.deriv(x, 0)

    __call__ = value

    def deriv(self, x, order: int = 0):
        """h and its derivatives up to order 3, closed form per family."""
        x, scalar = _as_array(x)
        if np.any(x < self.x0 * (1 - 1e-12)):
            raise DomainError(f"x below domain start {self.x0}")
        with np.errstate(over="ignore"):
            out = self._deriv_raw(x, order)
        if not np.all(np.isfinite(out)):
            raise OverflowError("h evaluation left the representable range")
        return _ret(out, scalar)

    def _deriv_raw(self, x, order):
        h = x**self.c * self.ell._ell_raw(x)
        if order == 0:
            return h
        th0 = self.ell._theta_raw(x, 0)
        v0 = (self.c + th0) / x
        if order == 1:
            return h * v0
        th1 = self.ell._theta_raw(x, 1)
        v1 = th1 / x - (self.c + th0) / x**2
        if order == 2:
            return h * (v1 + v0**2)
        if order == 3:
            th2 = self.ell._theta_raw(x, 2)
            v2 = th2 / x - 2 * th1 / x**2 + 2 * (self.c + th0) / x**3
            return h * (v2 + 3 * v0 * v1 + v0**3)
        raise ValueError("order must be in 0..3")

    def value_longdouble(self, x):
        """h evaluated in extended precision on a longdouble array."""
        x = np.asarray(x, dtype=np.longdouble)
        if self.c == 1.0:
            p = x
        else:
            p = x ** np.longdouble(self.c)
        return p * self.ell._ell_raw(x)

    # -- flat key=value serialization -------------------------------------

    def to_kv(self) -> str:
        items = self.ell.kv_items()
        items.append(("c", format(self.c, "g")))
        items.append(("x0", format(self.x0, "g")))
        return ", ".join(f"{k}={v}" for k, v in items)

    @classmethod
    def from_kv(cls, text: str, check: bool = True) -> "RegVaryFn":
        kv = {}
        for part in text.replace("\n", ",").split(","):
            part = part.strip()
            if not part:
                continue
            k, _, v = part.partition("=")
            kv[k.strip()] = v.strip()
        kind = kv.get("family", "log_power")
        ell = SlowlyVaryingSpec(
            kind,
            B=float(kv.get("B", 1.0)),
            C=float(kv.get("C", 0.5)),
            m=int(kv.get("m", 1)),
        )
        return cls(float(kv.get("c", 1.0)), ell,
                   x0=float(kv["x0"]) if "x0" in kv else None, check=check)

    def __eq__(self, other):
        if not isinstance(other, RegVaryFn):
            return NotImplemented
        return (self.c, self.ell, self.x0) == (other.c, other.ell, other.x0)

    def __hash__(self):
        return hash((self.c, self.ell, self.x0))

    def __repr__(self):
        return f"RegVaryFn({self.to_kv()})"


class InverseFn:
    """The inverse phi of a RegVaryFn, with derivatives up to order 3."""

    def __init__(self, source: RegVaryFn):
        self.source = source
        self.y0 = source.value(source.x0)

    def _check(self, y):
        if np.any(y < self.y0 * (1 - 1e-12) - 1e-12):
            raise DomainError(f"y below h(x0) = {self.y0}")

    def invert(self, y):
        """Solve h(x) = y to |h(x) - y| <= max(1e-14 y, 1e-14).

        Safeguarded Newton: iterates leaving the current bracket are
        replaced by its geometric midpoint; h monotone makes this always
        terminate.  Each point stops at its first iterate within the
        tolerance, so its result depends on its own y only, never on the
        other points of the array.  Deterministic.
        """
        y, scalar = _as_array(y)
        self._check(y)
        x = self._newton(np.maximum(y, self.y0))
        return _ret(x, scalar)

    __call__ = invert

    def _newton(self, y):
        """The root of h(x) = y for every element of y, to the tolerance
        of `invert`, in at most 60 Newton steps.

        Only unconverged points are iterated: a point is frozen at its
        first iterate within the tolerance.  Iterating it further would
        throw it off the root, since a converged point with h(x) <= y
        becomes the bracket's lower end and the next Newton step, landing
        on it, is replaced by the bracket's geometric midpoint.
        """
        h = self.source
        shape = np.shape(y)
        y = np.ravel(y)
        hi = np.maximum(2 * h.x0, y)
        bad = np.flatnonzero(h._deriv_raw(hi, 0) < y)
        for _ in range(199):
            if not bad.size:
                break
            hi[bad] *= 2
            bad = bad[h._deriv_raw(hi[bad], 0) < y[bad]]
        if bad.size:
            raise ConvergenceError("could not bracket the inverse")
        lo = np.full_like(y, h.x0)
        x = np.sqrt(lo * hi)
        # xa, ya, lo, hi hold the unconverged points, at x[act] once
        # some have converged (act is None while none has)
        xa, ya, act = x, y, None
        for step in range(61):
            fx = h._deriv_raw(xa, 0) - ya
            done = np.abs(fx) <= np.maximum(1e-14 * ya, 1e-14)
            if act is None:
                x = xa
            else:
                x[act[done]] = xa[done]
            if done.all():
                return x.reshape(shape)
            if step == 60:
                raise ConvergenceError("inverse iteration stalled",
                                       last=x.reshape(shape), previous=fx)
            if done.any():
                keep = ~done
                act = np.flatnonzero(keep) if act is None else act[keep]
                xa, ya, lo, hi, fx = xa[keep], ya[keep], lo[keep], hi[keep], fx[keep]
            above = fx > 0
            np.copyto(hi, xa, where=above)
            np.copyto(lo, xa, where=~above)
            xn = xa - fx / h._deriv_raw(xa, 1)
            outside = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
            np.copyto(xn, np.sqrt(lo * hi), where=outside)
            xa = xn

    def pair(self, y):
        """phi(y) as a head/tail pair of doubles.

        One extended-precision residual correction on top of the double
        Newton solve; the pair represents phi(y) with absolute error about
        1e-19 * y / h'(phi), small enough that fractional parts keep ~1e-11
        accuracy even at y ~ 1e8.  Solved and corrected BLOCK points at once,
        the last block taking one point more, so that a BLOCK run and its
        successor (`_pairs_and_steps`) are one solve.
        """
        y, scalar = _as_array(y)
        self._check(y)
        yc = np.ravel(np.maximum(y, self.y0))
        head, tail, h = np.empty_like(yc), np.empty_like(yc), self.source
        ends = [*range(BLOCK, yc.size - 1, BLOCK), yc.size]
        for b in map(slice, [0, *ends[:-1]], ends):
            head[b] = self._newton(yc[b])
            r = np.asarray(yc[b], dtype=np.longdouble) - h.value_longdouble(head[b])
            tail[b] = np.asarray(r, dtype=np.float64) / h._deriv_raw(head[b], 1)
        if scalar:
            return float(head[0]), float(tail[0])
        return head.reshape(y.shape), tail.reshape(y.shape)

    def enclose(self, y):
        """(lo, hi), arrays shaped as y, with lo < phi(y) < hi at every
        element of y, in double precision, hi - lo about 2^-31 phi(y);
        lo = hi = nan where no enclosure is certified.

        The start interpolates `_newton` roots at every ENCLOSE_STRIDE-th
        element of y linearly, so it is close only where y increases, and
        takes a Newton step.  lo and hi are the point times 1 -+
        ENCLOSE_RADIUS (`_bracket`): as h is increasing they enclose phi(y)
        when h(lo) < y < h(hi), which is required to hold as computed with
        a margin of H_ROUNDING relative, the allowance for the double
        evaluation of h.  Points that fail take a second Newton step (it
        matters where y is small and phi curves most), then `_newton`,
        whose tolerance (invert's, 1e-14 y in h, so about 1e-14 phi in x)
        lies well inside the radius, each followed by the same test.
        Deterministic, and a point's enclosure is certified whatever the
        other points are."""
        y, _ = _as_array(y)
        self._check(y)
        shape = y.shape
        y = np.ravel(np.maximum(y, self.y0))
        # every ENCLOSE_STRIDE-th index and the last, each once
        nodes = np.minimum(np.arange(0, y.size + ENCLOSE_STRIDE - 1,
                                     ENCLOSE_STRIDE), y.size - 1)
        x = self._step(np.interp(y, y[nodes], self._newton(y[nodes])), y)
        lo, hi = self._bracket(x, y)
        bad = np.flatnonzero(np.isnan(hi))
        if bad.size:
            xb, yb = self._step(x[bad], y[bad]), y[bad]
            lo[bad], hi[bad] = self._bracket(xb, yb)
            bad = bad[np.isnan(hi[bad])]
        if bad.size:
            lo[bad], hi[bad] = self._bracket(self._newton(y[bad]), y[bad])
        return lo.reshape(shape), hi.reshape(shape)

    def _step(self, x, y):
        """One Newton step for h(x) = y from x."""
        h = self.source
        return x - (h._deriv_raw(x, 0) - y) / h._deriv_raw(x, 1)

    def _bracket(self, x, y):
        """(lo, hi) = x (1 -+ ENCLOSE_RADIUS) where h(lo) < y (1 -
        H_ROUNDING) and h(hi) > y (1 + H_ROUNDING), as evaluated in double
        precision, else nan."""
        lo, hi = x * (1.0 - ENCLOSE_RADIUS), x * (1.0 + ENCLOSE_RADIUS)
        h = self.source
        bad = ~((h._deriv_raw(lo, 0) < y * (1.0 - H_ROUNDING))
                & (h._deriv_raw(hi, 0) > y * (1.0 + H_ROUNDING)))
        lo[bad] = hi[bad] = np.nan
        return lo, hi

    def deriv(self, y, order: int = 1):
        """phi', phi'' or phi''' via the inverse-function theorem."""
        y, scalar = _as_array(y)
        self._check(y)
        x = self._newton(np.maximum(y, self.y0))
        h1 = self.source._deriv_raw(x, 1)
        if order == 1:
            return _ret(1.0 / h1, scalar)
        h2 = self.source._deriv_raw(x, 2)
        if order == 2:
            return _ret(-h2 / h1**3, scalar)
        if order == 3:
            h3 = self.source._deriv_raw(x, 3)
            return _ret((3 * h2**2 - h1 * h3) / h1**5, scalar)
        raise ValueError("order must be 1, 2 or 3")

    def sigma1_hat(self, y):
        """Empirical curvature factor x^2 |phi''(x)| / phi(x).

        For a pure power h = x^c this is the constant |gamma (gamma-1)|
        with gamma = 1/c.  Callers working with c > 1 conventionally
        replace it by 1.
        """
        y, scalar = _as_array(y)
        self._check(y)
        x = self._newton(np.maximum(y, self.y0))
        h1 = self.source._deriv_raw(x, 1)
        h2 = self.source._deriv_raw(x, 2)
        phi2 = -h2 / h1**3
        return _ret(y**2 * np.abs(phi2) / x, scalar)


class PsiFn:
    """Membership window psi, either phi2(x+1) - phi2(x) or phi2'(x).

    n_min is the first integer at which psi <= 1/2 (psi is decreasing for
    every supported family since h is convex); sets are built from n_min
    on so that the window hypothesis holds on the whole index range.
    """

    MODES = ("difference", "derivative")

    def __init__(self, phi2: InverseFn, mode: str = "difference"):
        if mode not in self.MODES:
            raise ValueError(f"unknown psi mode {mode!r}")
        self.phi2 = phi2
        self.mode = mode
        self.n_min = self._find_n_min()

    def _raw(self, x):
        if self.mode == "derivative":
            return self.phi2.deriv(x, 1)
        return _pairs_and_steps(self.phi2, x)[2]

    def _find_n_min(self) -> int:
        n = max(2, math.ceil(self.phi2.y0 - 1e-9))
        if self._raw(float(n)) <= 0.5:
            return n
        lo = n
        hi = n
        for _ in range(62):
            hi *= 2
            if self._raw(float(hi)) <= 0.5:
                break
            lo = hi
        else:
            raise ConvergenceError("psi never drops below 1/2")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._raw(float(mid)) <= 0.5:
                hi = mid
            else:
                lo = mid
        return hi

    def value(self, x):
        x, scalar = _as_array(x)
        if np.any(x < self.n_min):
            raise DomainError(f"x below n_min = {self.n_min}")
        return _ret(self._raw(x), scalar)

    __call__ = value


def _pairs_and_steps(phi: InverseFn, n):
    """phi's pairs at n and the steps phi(n + 1) - phi(n), shaped as n: one
    solve of a run and its successor, else two, which agree bit for bit
    because each point's solve is independent of the others."""
    shape = np.shape(n)
    n = np.ravel(n)
    if n.size and np.array_equal(n[:-1] + 1.0, n[1:]):
        heads, tails = phi.pair(np.append(n, n[-1] + 1.0))
        h0, t0, h1, t1 = heads[:-1], tails[:-1], heads[1:], tails[1:]
    else:
        (h0, t0), (h1, t1) = phi.pair(n), phi.pair(n + 1.0)
    return (h0.reshape(shape), t0.reshape(shape),
            ((h1 - h0) + (t1 - t0)).reshape(shape))


def pairs_and_window(n, phi1: InverseFn, psi):
    """phi1's head/tail pairs and the window psi at the indices n.

    When psi is phi1's own difference window (equal by value), the pairs
    come out of psi's solve, one of L + 1 points for a run of L; any other
    window (another h2, derivative mode, a stub) is evaluated separately.
    """
    if (isinstance(psi, PsiFn) and psi.mode == "difference"
            and psi.phi2.source == phi1.source):
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < psi.n_min):
            raise DomainError(f"x below n_min = {psi.n_min}")
        return _pairs_and_steps(psi.phi2, n)
    head, tail = phi1.pair(n)
    return head, tail, np.asarray(psi(n), dtype=np.float64)


# CHUNK runs fix the summation order of every np.sum and mat-vec, so its bits;
# BLOCK runs of the elementwise passes bound the working set and fix no value
CHUNK = 1 << 19
BLOCK = 1 << 14

# InverseFn.enclose: the spacing of its exact roots, its relative radius,
# and the relative error it allows the double evaluation of h, which is
# below 2^-46 on the families the tests probe (75 ulp for iterated_log
# m = 3 at its x0)
ENCLOSE_STRIDE = 64
ENCLOSE_RADIUS = 2.0 ** -32
H_ROUNDING = 2.0 ** -36


def index_chunks(lo: int, hi: int, run: int):
    """lo..hi in order, as float64 runs of `run` integers (the last shorter)."""
    for a in range(lo, hi + 1, run):
        yield np.arange(a, min(a + run, hi + 1), dtype=np.float64)


def blocks(size: int):
    """The slices of 0..size-1 in BLOCK runs, in order."""
    return (slice(a, a + BLOCK) for a in range(0, size, BLOCK))
