"""Lower estimates of the majorant constant and the exponent threshold.

The constant of a finite frequency set A compares the largest L^p norm
achievable with coefficients in the unit polydisc against the all-ones
polynomial.  The objective |a| <= 1 -> ||sum a_n e(n.)||_p is convex in
the coefficient vector, so its maximum over the polydisc is attained at
an extreme point, i.e. at unimodular coefficients; searching over
|a_n| = 1 loses nothing.

Every reported value is the ratio of two quadrature norms at a feasible
coefficient choice, hence a lower estimate of the supremum, up to the
quadrature's stopping error: `lp_norm` stops on a successive-difference
rule, which bounds no error.  The gap to the true supremum is unknown in
general and outputs say so.

Search strategy (defaults follow the package-wide reproducibility
conventions: a master seed, derived per-restart seeds, max reduction
with earliest-restart tie-break):

* all ones: the reference polynomial itself, ratio 1;
* sign patterns: all of them, when 2^(|A|-1) is small enough;
* phases: L-BFGS ascent on the grid-discretized objective (two-loop
  recursion over the last 8 curvature pairs, steepest ascent when that
  direction does not ascend) with backtracking line search from the unit
  step (Armijo factor 1e-4, halving steps), stopped when the gradient
  sup-norm drops below 1e-7 times the objective.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, CapacityError
from .sparseset import SparseSet
from .sweeps import SweepResult, derive_seed, per_row, sweep
from .trigpoly import (GRID_CAP_DEFAULT, TrigPoly, _grid_dft,
                       lower_bound_lowfreq, lp_norm)

DEFAULT_RESTARTS = 16          # phase ascents per estimate
DEFAULT_MAX_ITER = 200
# twice what the default restarts can spend: it never cuts an ascent short
DEFAULT_BUDGET = 2 * DEFAULT_RESTARTS * DEFAULT_MAX_ITER
ARMIJO = 1e-4
LBFGS_MEMORY = 8               # curvature pairs the phase ascent keeps
GRAD_STOP = 1e-7
EXHAUSTIVE_SIGN_LIMIT = 12     # 2^(|A|-1) <= 2048 patterns: cheap to enumerate
BRUTE_FORCE_BUDGET = 1 << 31


def p_threshold(c1: float, c2: float) -> float:
    """The admissible exponent 2 + (12 - 12/c2)/(1/c1 + 3/c2 - 3).

    Defined when 1 < 1/(3 c1) + 1/c2; equals 2 when c2 = 1 and grows as
    c2 moves up, reaching 6 at (c1, c2) = (1, 6/5 - 0).
    """
    if c1 <= 0 or c2 <= 0:
        raise AdmissibilityError("exponents must be positive")
    if not 1.0 < 1.0 / (3.0 * c1) + 1.0 / c2:
        raise AdmissibilityError(
            f"(c1, c2) = ({c1}, {c2}) violates 1 < 1/(3 c1) + 1/c2")
    den = 1.0 / c1 + 3.0 / c2 - 3.0
    return 2.0 + (12.0 - 12.0 / c2) / den


def _support(A) -> np.ndarray:
    """A (a SparseSet or integers) as an int64 array, checked to be a
    nonempty, strictly increasing run of nonnegative frequencies."""
    A = A.members if isinstance(A, SparseSet) else np.asarray(A, dtype=np.int64)
    if len(A) == 0:
        raise ValueError("A must be nonempty")
    if A[0] < 0 or np.any(A[1:] <= A[:-1]):
        raise ValueError("A must be strictly increasing and nonnegative")
    return A


@dataclass(frozen=True)
class MajorantProblem:
    A: np.ndarray
    N: int
    p: float
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def __post_init__(self):
        A = _support(self.A)
        object.__setattr__(self, "A", A)
        if A[-1] > self.N:
            raise ValueError("max(A) must not exceed N")
        if not (math.isfinite(self.p) and self.p >= 2):
            raise ValueError(f"p must be finite and >= 2, got {self.p}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


@dataclass
class MajorantEstimate:
    """A feasible maximizer: `value` is a lower estimate of the supremum,
    reached by the coefficients `argmax_coeffs` on the frequencies
    `support`.

    `method` names the candidate that won: `all_ones`, `signs_exhaustive`
    or `phase_gradient` from estimate_constant, `brute_force` from
    brute_force_constant.  `trials` counts the candidates scored."""

    value: float
    argmax_coeffs: np.ndarray
    support: np.ndarray
    method: str
    trials: int
    norm_tol: float
    budget_exhausted: bool = False


# ----------------------------------------------------- discretized objective


class _GridObjective:
    """F(coeffs) = (1/K) sum_j |P(j/K)|^p on a fixed power-of-two grid.

    The sign enumeration and the phase ascent rank candidates by this
    surrogate; their winners are re-measured with the adaptive quadrature
    afterwards.
    The analytic gradient with respect to coefficient phases is

        dF/dtheta_n = -p * Im( a_n * q_n ),
        q_n = (1/K) sum_j |P(j/K)|^(p-2) conj(P(j/K)) e(n j/K),

    which matches finite differences of F exactly because both live on
    the same discretization.  Both transforms are those of
    `trigpoly._grid_dft`: `values` for P, `at_support` for q.  An
    evaluation takes one power: s = |P|^2 = re^2 + im^2,
    w = s^((p-2)/2) and F = sum(w s)/K, and the gradient reuses w.  The
    grid buffers of P, s, w and q are allocated once per objective, so
    `measure` returns views that its next call overwrites.
    """

    def __init__(self, support: np.ndarray, p: float, K: int | None = None):
        self.support = np.asarray(support, dtype=np.int64)
        self.p = float(p)
        D = int(self.support[-1])
        if K is None:
            # 2x oversampling is plenty for a ranking surrogate; winners
            # are re-measured with the adaptive quadrature afterwards
            K = 256
            while K < 2 * (D + 1):
                K *= 2
        self.K = K
        self.evals = 0
        self.values, self._at_support = _grid_dft(self.support, K)
        self._s = np.empty(K)
        self._w = np.empty(K)
        self._q = np.empty(K, dtype=np.complex128)

    def measure(self, coeffs):
        """(grid values, |P|^(p-2) on the grid, F) of a coefficient
        vector; both arrays are views that the next call overwrites."""
        self.evals += 1
        vals = self.values(coeffs)
        s, w = self._s, self._w
        np.multiply(vals.real, vals.real, out=s)
        np.multiply(vals.imag, vals.imag, out=w)
        s += w
        np.power(s, 0.5 * (self.p - 2.0), out=w)
        s *= w
        return vals, w, float(np.sum(s) / self.K)

    def value_and_grad(self, theta, at=None):
        """F and dF/dtheta; at, when known, is (coeffs, *measure(coeffs))
        for coeffs = exp(i theta), as a line search has computed it."""
        if at is None:
            coeffs = np.exp(1j * theta)
            at = (coeffs, *self.measure(coeffs))
        coeffs, vals, w, F = at
        q = np.conjugate(vals, out=self._q)
        q *= w
        grad = (-self.p / self.K) * np.imag(coeffs * self._at_support(q))
        return F, grad


def _two_loop(g, pairs):
    """The L-BFGS direction H g from the curvature pairs (s, y, 1/s.y),
    oldest first, with H0 = (s.y / y.y) of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q /= rho * (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _phase_ascent(obj: _GridObjective, theta, max_iter, budget_left):
    """L-BFGS ascent with backtracking; returns (theta, F, iterations).

    The direction is the two-loop recursion over the last LBFGS_MEMORY
    curvature pairs (s = step, y = gradient decrease), a pair kept only
    when s.y > 0 beyond roundoff.  The first step, and any step whose
    direction does not ascend (the memory is then cleared), is steepest
    ascent scaled by F/|g|^2.  Armijo backtracking starts from the unit
    step; an accepted trial's coefficients, grid values, |P|^(p-2) and F
    feed the gradient, so a step accepted at once costs two transforms.  One
    iteration = one accepted (or abandoned) step; the budget is counted
    in iterations, matching the problem's budget semantics.
    """
    F, g = obj.value_and_grad(theta)
    pairs = deque(maxlen=LBFGS_MEMORY)
    used = 0
    for _ in range(max_iter):
        if used >= budget_left:
            break
        gnorm = float(np.max(np.abs(g))) if len(g) else 0.0
        if gnorm < GRAD_STOP * max(F, 1e-300):
            break
        d = _two_loop(g, pairs) if pairs else g
        if not pairs or g @ d <= 0.0:
            pairs.clear()
            d = g * (max(F, 1e-300) / float(g @ g))
        slope = float(g @ d)
        t = 1.0
        accepted = False
        for _ in range(40):
            trial = theta + t * d
            coeffs = np.exp(1j * trial)
            vals, w, F_trial = obj.measure(coeffs)
            if F_trial >= F + ARMIJO * t * slope:
                accepted = True
                break
            t *= 0.5
        used += 1
        if not accepted:
            break
        F, g_new = obj.value_and_grad(trial, (coeffs, vals, w, F_trial))
        s, y = trial - theta, g - g_new
        sy = float(s @ y)
        if sy > 1e-10 * math.sqrt(float(s @ s) * float(y @ y)):
            pairs.append((s, y, 1.0 / sy))
        theta, g = trial, g_new
    return theta, F, max(used, 1)


def _exhaustive_signs(obj: _GridObjective, n_free: int):
    """All sign patterns with the first coefficient pinned to +1."""
    count = 1 << n_free
    best_F = -math.inf
    best = None
    chunk = 1 << 11
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n_free, dtype=np.uint64)[None, :]) & 1
        pats = np.concatenate(
            [np.ones((len(idx), 1)), 1.0 - 2.0 * bits.astype(np.float64)], axis=1)
        dense = np.zeros((len(idx), obj.K), dtype=np.complex128)
        dense[:, obj.support] = pats
        vals = np.fft.ifft(dense, axis=1, norm="forward", out=dense)
        F = np.mean(np.abs(vals) ** obj.p, axis=1)
        obj.evals += len(idx)
        k = int(np.argmax(F))
        if F[k] > best_F:
            best_F = float(F[k])
            best = pats[k]
    return best, best_F, count


def estimate_constant(prob: MajorantProblem, tol: float = 1e-9,
                      restarts: int = DEFAULT_RESTARTS,
                      max_iter: int = DEFAULT_MAX_ITER,
                      cap: int = GRID_CAP_DEFAULT) -> MajorantEstimate:
    """Maximize ||sum a_n e(n.)||_p / ||sum e(n.)||_p over |a_n| = 1.

    The all-ones choice is always a candidate, of ratio 1, so the result
    is never below 1.  Every sign pattern is scored when |A| - 1 <=
    EXHAUSTIVE_SIGN_LIMIT.  Then up to `restarts` phase ascents run while
    the budget lasts: restart 0 from theta = 0, restart r from angles
    drawn with derive_seed(seed, 1000 + r); the best objective wins,
    earlier restarts winning ties.  `cap` is the grid cap of the
    quadratures that re-measure the finalists.
    """
    A = prob.A
    obj = _GridObjective(A, prob.p)
    ones = np.ones(len(A), dtype=np.complex128)
    finalists = []
    # the all-ones candidate counts as one trial and one unit of budget
    used = trials = 1
    exhausted = False

    if len(A) - 1 <= EXHAUSTIVE_SIGN_LIMIT:
        pat, _, count = _exhaustive_signs(obj, len(A) - 1)
        finalists.append(("signs_exhaustive", pat.astype(np.complex128)))
        trials += count
        used += 1

    best_F, best_theta = -math.inf, None
    for r in range(restarts):
        if used >= prob.budget:
            exhausted = True
            break
        rng = np.random.default_rng(derive_seed(prob.seed, 1000 + r))
        theta = (np.zeros(len(A)) if r == 0
                 else rng.uniform(0.0, 2.0 * math.pi, size=len(A)))
        theta[0] = 0.0
        th, F, spent = _phase_ascent(obj, theta, max_iter, prob.budget - used)
        if F > best_F:
            best_F, best_theta = F, th
        used += spent
        trials += 1
    if best_theta is not None:
        finalists.append(("phase_gradient", np.exp(1j * best_theta)))

    # the grid objective only ranks; re-measure the best candidate of each
    # search with the adaptive quadrature and let the true values decide
    base = lp_norm(TrigPoly(A, ones), prob.p, tol=max(tol, 1e-12), cap=cap).value
    value, best_method, best_coeffs = 1.0, "all_ones", ones
    for meth, coeffs in finalists:
        ratio = lp_norm(TrigPoly(A, coeffs), prob.p,
                        tol=max(tol, 1e-12), cap=cap).value / base
        if ratio > value:
            value, best_method, best_coeffs = ratio, meth, coeffs
    return MajorantEstimate(value=value, argmax_coeffs=best_coeffs, support=A,
                            method=best_method, trials=trials,
                            norm_tol=tol, budget_exhausted=exhausted)


# ------------------------------------------------------------- brute force


_ALPHABETS = {
    "signs": np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    "fourth_roots": np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]),
}


def brute_force_constant(A, p: float, alphabet: str = "signs", k: int | None = None,
                         fix_global_phase: bool = True, tol: float = 1e-9,
                         budget: int = BRUTE_FORCE_BUDGET) -> MajorantEstimate:
    """Exhaustive maximization over a finite coefficient alphabet.

    The objective is invariant under one global unimodular factor, so the
    first coefficient is pinned to 1 by default; fix_global_phase=False
    enumerates all positions (for testing that the quotient is lossless).
    """
    A = _support(A)
    if alphabet == "phase_grid":
        if k is None or k < 1:
            raise ValueError("phase_grid needs k")
        letters = np.exp(2j * np.pi * np.arange(k) / k)
    elif alphabet in _ALPHABETS:
        letters = _ALPHABETS[alphabet]
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    n_free = len(A) - 1 if fix_global_phase else len(A)
    count = len(letters) ** n_free
    obj = _GridObjective(A, p)
    if count * obj.K > budget:
        raise CapacityError(
            f"{count} patterns on a grid of {obj.K} exceeds budget {budget}")
    radix = len(letters)
    best_F = -math.inf
    best = None
    chunk = max(1, (1 << 22) // obj.K)
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        digits = (idx[:, None] // radix ** np.arange(n_free)[None, :]) % radix
        pats = letters[digits]
        if fix_global_phase:
            pats = np.concatenate(
                [np.ones((len(idx), 1), dtype=np.complex128), pats], axis=1)
        dense = np.zeros((len(idx), obj.K), dtype=np.complex128)
        dense[:, A] = pats
        vals = np.fft.ifft(dense, axis=1, norm="forward", out=dense)
        F = np.mean(np.abs(vals) ** p, axis=1)
        j = int(np.argmax(F))
        if F[j] > best_F:
            best_F = float(F[j])
            best = pats[j]
    base = lp_norm(TrigPoly(A, np.ones(len(A), dtype=np.complex128)), p,
                   tol=max(tol, 1e-12)).value
    top = lp_norm(TrigPoly(A, best), p, tol=max(tol, 1e-12)).value
    return MajorantEstimate(value=top / base, argmax_coeffs=best, support=A,
                            method="brute_force", trials=count, norm_tol=tol)


# ---------------------------------------------------------------- envelope


def hy_envelope(A, N: int, p: float) -> float:
    """A priori ceiling |A|^(1/p') / (low-frequency floor of the base norm).

    Every feasible ratio sits below it: the numerator dominates any
    coefficient choice in the polydisc and the denominator certifies a
    lower bound for the all-ones norm.
    """
    A = np.asarray(A, dtype=np.int64)
    pp = p / (p - 1.0)
    return len(A) ** (1.0 / pp) / lower_bound_lowfreq(A, p, N=N)


# ------------------------------------------------------------------ sweeps


def uniformity_sweep(build_set_fn, p: float, N_list, budget: int = DEFAULT_BUDGET,
                     seed: int = 0, tol: float = 1e-9,
                     cap: int = GRID_CAP_DEFAULT, workers: int = 1
                     ) -> tuple[list[SweepResult], list[MajorantEstimate]]:
    """Constant estimates across N with a shared optimizer budget.

    build_set_fn(N) -> SparseSet.  One sweeps.sweep task per entry of
    N_list builds its set and estimates its constant, with the seed
    derive_seed(seed, position) whatever the worker count.  Returns one
    row and one estimate per entry of N_list, in its order.  The
    no-growth verdict is the fitted log-log slope of the estimates,
    attached to every row; each row also carries the running maximum
    over the rows up to it and the a priori envelope.
    """
    estimates = {}

    def task(N_i):
        N, i = N_i
        bset = build_set_fn(N)
        prob = MajorantProblem(bset.members, N, p, budget=budget,
                               seed=derive_seed(seed, i))
        est = estimates[i] = estimate_constant(prob, tol=tol, cap=cap)
        env = hy_envelope(bset.members, N, p)
        return [SweepResult(
            experiment="majorant", quantity="majorant_lower_estimate",
            value=est.value, reference=env, ratio=est.value / env,
            seed=prob.seed, borderline_count=bset.borderline_count,
            params={"N": N, "p": p, "set_size": len(bset),
                    "method": est.method, "trials": est.trials,
                    "budget_exhausted": est.budget_exhausted},
        )]

    rows = sweep([(int(N), i) for i, N in enumerate(N_list)], task,
                 per_row(lambda r: r.value), workers=workers)
    running = -math.inf
    for r in rows:
        running = max(running, r.value)
        r.params["running_max"] = running
    return rows, [estimates[i] for i in range(len(N_list))]
