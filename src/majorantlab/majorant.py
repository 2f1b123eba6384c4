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

* all ones: the reference polynomial itself, ratio 1, built and measured first;
* sign patterns: all 2^(|A|-1) of them, the first pinned to +1, while
  |A| - 1 <= EXHAUSTIVE_SIGN_LIMIT = 12, max(1, 2^22 // K) per batch;
* phases: up to 16 L-BFGS ascents on the grid objective (memory 8,
  Armijo backtracking from the unit step), each stopped when its gradient
  sup-norm drops below 1e-7 times the objective; no more start once two
  in a row fail to raise the best objective by more than 1e-9 relative.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, CapacityError
from .sparseset import SparseSet
from .sweeps import SweepResult, derive_seed, per_row, sweep
from .trigpoly import (GRID_CAP_DEFAULT, TrigPoly, _grid_dft, _grid_length,
                       lower_bound_lowfreq, lp_norm)

DEFAULT_RESTARTS = 16          # the most phase ascents per estimate
STOP_AFTER_FAILS = 2           # restarts in a row that do not raise the best
RAISE_RTOL = 1e-9              # raising means F > best F (1 + RAISE_RTOL)
DEFAULT_MAX_ITER = 200
# twice what the default restarts can spend: it never cuts an ascent short
DEFAULT_BUDGET = 2 * DEFAULT_RESTARTS * DEFAULT_MAX_ITER
ARMIJO = 1e-4
LBFGS_MEMORY = 8               # curvature pairs the phase ascent keeps
GRAD_STOP = 1e-7
EXHAUSTIVE_SIGN_LIMIT = 12     # 2^12 sign patterns, max(1, 2^22 // K) a batch
BRUTE_FORCE_BUDGET = 1 << 31   # patterns times grid points
BRUTE_FORCE_TOL = 1e-9


def admissibility_margin(c1: float, c2: float) -> float:
    """1/c1 + 3/c2 - 3: three times the excess of 1/(3 c1) + 1/c2 over 1,
    positive iff the exponent pair (c1, c2) is admissible."""
    return 1.0 / c1 + 3.0 / c2 - 3.0


def p_threshold(c1: float, c2: float) -> float:
    """The admissible exponent 2 + (12 - 12/c2)/admissibility_margin.

    Defined when the margin is positive; equals 2 when c2 = 1 and grows
    as c2 moves up, reaching 6 at (c1, c2) = (1, 6/5 - 0).
    """
    if c1 <= 0 or c2 <= 0:
        raise AdmissibilityError("exponents must be positive")
    margin = admissibility_margin(c1, c2)
    if not margin > 0.0:
        raise AdmissibilityError(
            f"(c1, c2) = ({c1}, {c2}) violates 1 < 1/(3 c1) + 1/c2")
    return 2.0 + (12.0 - 12.0 / c2) / margin


def _all_ones(A) -> TrigPoly:
    """The all-ones polynomial on A (a SparseSet or integers); building it
    is the one check of A: nonempty, then TrigPoly's support rule."""
    A = A.members if isinstance(A, SparseSet) else np.asarray(A, dtype=np.int64)
    if len(A) == 0:
        raise ValueError("A must be nonempty")
    return TrigPoly(A, np.ones(len(A), dtype=np.complex128))


@dataclass
class MajorantEstimate:
    """A feasible maximizer: `value` is a lower estimate of the supremum,
    reached by the coefficients `argmax_coeffs` on the frequencies
    `support`.

    `method` names the candidate that won: `all_ones`, `signs_exhaustive`
    or `phase_gradient` from estimate_constant, `brute_force` from
    brute_force_constant.  `trials` counts the candidates scored, each
    phase restart run as one, and `norm_tol` is the quadratures' tolerance."""

    value: float
    argmax_coeffs: np.ndarray
    support: np.ndarray
    method: str
    trials: int
    norm_tol: float
    budget_exhausted: bool = False


# ----------------------------------------------------- discretized objective


def _objective_grid(degree: int) -> int:
    """K, the grid of the surrogate objective for a polynomial of that
    degree: 2x oversampling is plenty for ranking candidates, whose
    winners are re-measured with the adaptive quadrature afterwards."""
    return max(256, 2 * _grid_length(degree))


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

    def __init__(self, support: np.ndarray, p: float):
        self.support = np.asarray(support, dtype=np.int64)
        self.p = float(p)
        self.K = K = _objective_grid(int(self.support[-1]))
        self.values, self._at_support = _grid_dft(self.support, K)
        self._s = np.empty(K)
        self._w = np.empty(K)
        self._q = np.empty(K, dtype=np.complex128)

    def measure(self, coeffs):
        """(grid values, |P|^(p-2) on the grid, F) of a coefficient
        vector; both arrays are views that the next call overwrites."""
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
    iteration = one accepted (or abandoned) step; budget_left counts
    iterations, the unit of estimate_constant's `budget`.
    """
    F, g = obj.value_and_grad(theta)
    pairs = deque(maxlen=LBFGS_MEMORY)
    used = 0
    for _ in range(max_iter):
        if used >= budget_left:
            break
        gnorm = float(np.max(np.abs(g)))
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


_ALPHABETS = {
    "signs": np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    "fourth_roots": np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]),
}


def _best_pattern(obj: _GridObjective, letters, n_free: int):
    """(pattern, count): the largest F of all len(letters)**n_free
    patterns, the coefficients before the last n_free pinned to 1.  Digit
    j of pattern i in base len(letters), least significant first, picks
    the letter at free position j.  A batch scores max(1, 2^22 // K)
    patterns on the K-point grid; the earliest argmax wins."""
    radix = len(letters)
    count = radix ** n_free
    pinned = len(obj.support) - n_free
    powers = radix ** np.arange(n_free, dtype=np.int64)
    best_F, best = -math.inf, None
    chunk = max(1, (1 << 22) // obj.K)
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        pats = np.ones((len(idx), len(obj.support)), dtype=np.complex128)
        pats[:, pinned:] = letters[(idx[:, None] // powers) % radix]
        dense = np.zeros((len(idx), obj.K), dtype=np.complex128)
        dense[:, obj.support] = pats
        vals = np.fft.ifft(dense, axis=1, norm="forward", out=dense)
        F = np.mean(np.abs(vals) ** obj.p, axis=1)
        j = int(np.argmax(F))
        if F[j] > best_F:
            best_F, best = float(F[j]), pats[j].copy()
    return best, count


def estimate_constant(A, p: float, *, seed: int = 0,
                      budget: int = DEFAULT_BUDGET, tol: float = 1e-9,
                      restarts: int = DEFAULT_RESTARTS,
                      max_iter: int = DEFAULT_MAX_ITER,
                      cap: int = GRID_CAP_DEFAULT) -> MajorantEstimate:
    """Maximize ||sum a_n e(n.)||_p / ||sum e(n.)||_p over |a_n| = 1, the
    frequencies n running over A (a SparseSet or integers).

    The all-ones choice is always a candidate, of ratio 1, so the result
    is never below 1; building it checks A, and after p and budget its
    quadrature checks tol, p's double range and the grid cap before any
    search.  Every sign pattern is scored when |A| - 1 <=
    EXHAUSTIVE_SIGN_LIMIT.  Then up to `restarts` phase ascents run, from
    theta = 0 (at F(all-ones)), then restart r from angles drawn with
    derive_seed(seed, 1000 + r), until the budget (`budget_exhausted`) or
    STOP_AFTER_FAILS in a row ending at most RAISE_RTOL above the best F
    end them; the best F wins, earlier restarts winning ties.  `tol` and
    `cap` are the tolerance and grid cap of every quadrature.
    """
    ones = _all_ones(A)
    A = ones.support
    if not (math.isfinite(p) and p >= 2):
        raise ValueError(f"p must be finite and >= 2, got {p}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    base = lp_norm(ones, p, tol=tol, cap=cap).value
    obj = _GridObjective(A, p)
    finalists = []
    # the all-ones candidate counts as one trial and one unit of budget
    used = trials = 1

    if len(A) - 1 <= EXHAUSTIVE_SIGN_LIMIT:
        pat, count = _best_pattern(obj, _ALPHABETS["signs"], len(A) - 1)
        finalists.append(("signs_exhaustive", pat))
        trials += count
        used += 1

    best_F, best_theta, fails, exhausted = -math.inf, None, 0, False
    for r in range(restarts):
        if fails == STOP_AFTER_FAILS or used >= budget:
            exhausted = fails < STOP_AFTER_FAILS
            break
        rng = np.random.default_rng(derive_seed(seed, 1000 + r))
        theta = (np.zeros(len(A)) if r == 0
                 else rng.uniform(0.0, 2.0 * math.pi, size=len(A)))
        theta[0] = 0.0
        th, F, spent = _phase_ascent(obj, theta, max_iter, budget - used)
        fails = 0 if F > best_F * (1.0 + RAISE_RTOL) else fails + 1
        if F > best_F:
            best_F, best_theta = F, th
        used += spent
        trials += 1
    if best_theta is not None:
        finalists.append(("phase_gradient", np.exp(1j * best_theta)))

    # the grid objective only ranks; re-measure the best candidate of each
    # search with the adaptive quadrature and let the true values decide
    value, best_method, best_coeffs = 1.0, "all_ones", ones.coeffs
    for meth, coeffs in finalists:
        ratio = lp_norm(TrigPoly(A, coeffs), p, tol=tol, cap=cap).value / base
        if ratio > value:
            value, best_method, best_coeffs = ratio, meth, coeffs
    return MajorantEstimate(value=value, argmax_coeffs=best_coeffs, support=A,
                            method=best_method, trials=trials,
                            norm_tol=tol, budget_exhausted=exhausted)


# ------------------------------------------------------------- brute force


def brute_force_constant(A, p: float, alphabet: str = "signs") -> MajorantEstimate:
    """Exhaustive maximization over the alphabet "signs" or "fourth_roots",
    the first coefficient pinned to 1 (the objective is invariant under one
    global unimodular factor) and the other len(A) - 1 run over it.
    All-ones checks A when built and p when measured, before any pattern.
    """
    ones = _all_ones(A)
    A = ones.support
    if alphabet not in _ALPHABETS:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    n_free = len(A) - 1
    count = len(_ALPHABETS[alphabet]) ** n_free
    K = _objective_grid(int(A[-1]))
    if count * K > BRUTE_FORCE_BUDGET:
        raise CapacityError(f"{count} patterns on a grid of {K} exceeds "
                            f"budget {BRUTE_FORCE_BUDGET}")
    obj = _GridObjective(A, p)
    base = lp_norm(ones, p, tol=BRUTE_FORCE_TOL).value
    best, _ = _best_pattern(obj, _ALPHABETS[alphabet], n_free)
    top = lp_norm(TrigPoly(A, best), p, tol=BRUTE_FORCE_TOL).value
    return MajorantEstimate(value=top / base, argmax_coeffs=best, support=A,
                            method="brute_force", trials=count,
                            norm_tol=BRUTE_FORCE_TOL)


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
        if len(bset) == 0:
            raise ValueError(
                f"the set is empty at N = {N}: no constant is defined")
        seed_i = derive_seed(seed, i)
        est = estimates[i] = estimate_constant(
            bset, p, seed=seed_i, budget=budget, tol=tol, cap=cap)
        env = hy_envelope(bset.members, N, p)
        return [SweepResult(
            experiment="majorant", quantity="majorant_lower_estimate",
            value=est.value, reference=env, ratio=est.value / env,
            seed=seed_i, borderline_count=bset.borderline_count,
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
