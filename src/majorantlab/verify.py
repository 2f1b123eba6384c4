"""Self-check suite: quick exact checks and reduced-size sweep checks.

quick: closed-form identities and structural checks, runs in seconds.
full:  adds the decay sweeps at reduced sizes; the report then carries
       the fitted exponents next to each verdict.

Acceptance criteria 1-10 have their one definition here, each taking
its sizes and seeds as arguments: tests/test_acceptance.py calls them
at the acceptance sizes, the suite at the reduced defaults, with the
same thresholds.  Six checks read the rows of a subcommand's sweep:
criteria 1 (count) from sparseset.count_sweep, 3 (expsum-decay) and
the lemma2 check (lemma2) from expsum.per_xi_sweep, 4 (vdc) from
expsum.vdc_ratio_sweep, 8 (majorant) from majorant.uniformity_sweep
and 9 (prop2) from trigpoly.restriction_sweep.  Each check returns
(passed, measured), where measured is a short printable summary of
what was observed; the CLI turns failures into exit code 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expsum as _expsum
from .expsum import (
    dirichlet_sum,
    exp_sum,
    per_xi_sweep,
    sawtooth_envelope,
    vdc_ratio_sweep,
    vdc_sum,
)
from .majorant import (
    brute_force_constant,
    estimate_constant,
    p_threshold,
    uniformity_sweep,
)
from .rvfunc import InverseFn, PsiFn, RegVaryFn, SlowlyVaryingSpec
from .sparseset import (
    SetSpec,
    build_floor_set,
    build_frac_set,
    count_sweep,
    member_floor_characterization,
    member_frac,
)
from .sweeps import golden_xis
from .trigpoly import (
    TrigPoly,
    even_p_oracle,
    fourier_of_measure,
    lp_norm,
    measure_nu,
    restriction_sweep,
    ttstar_apply,
)


def _xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


def _xlogx_plus(N):
    """The frac_plus set of h1 = h2 = x log x up to N."""
    h = _xlogx()
    return build_frac_set(SetSpec("frac_plus", h, h, N))


def _x15():
    return RegVaryFn(1.5, SlowlyVaryingSpec("constant_one"), x0=1.0)


@dataclass
class CheckResult:
    name: str
    level: str
    passed: bool
    measured: str


@dataclass
class VerifyReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self):
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            yield f"[{status}] ({r.level}) {r.name}: {r.measured}"


# ------------------------------------------------------------ quick checks


def check_h_fixed_points():
    h = _xlogx()
    v = h.value(math.e)
    return abs(v - math.e) < 1e-12, f"h(e) = {v!r}"


def check_inverse_round_trip():
    phi = InverseFn(_xlogx())
    ys = np.exp(np.linspace(np.log(2.0), np.log(1e10), 200))
    err = np.max(np.abs(phi.source.value(phi.invert(ys)) - ys) / ys)
    return err <= 1e-12, f"max rel residual {err:.2e}"


def check_phi_power_rule():
    phi = InverseFn(_x15())
    got = phi.deriv(8.0, 1)
    return abs(got - 1.0 / 3.0) < 1e-12, f"phi'(8) = {got!r}"


def check_psi_sandwich():
    psi = PsiFn(InverseFn(_xlogx()))
    xs = np.exp(np.linspace(np.log(psi.n_min), np.log(1e8), 200))
    vals = psi.value(xs)
    ok = bool(np.all(vals > 0) and np.all(vals <= 0.5))
    return ok, f"psi in ({vals.min():.3g}, {vals.max():.3g}], n_min={psi.n_min}"


def check_floor_set_example():
    got = build_floor_set(_x15(), 12).members.tolist()
    return got == [1, 2, 5, 8, 11], f"members {got}"


def check_integer_phase_membership():
    phi = InverseFn(_x15())
    psi = PsiFn(phi)
    m_plus, _ = member_frac(8, phi, psi, "plus")
    m_minus, _ = member_frac(8, phi, psi, "minus")
    return m_plus and m_minus, "n=8 in both signed sets"


def check_minus_set_equals_floor_image():
    h = _x15()
    s = build_frac_set(SetSpec("frac_minus", h, h, 10**4))
    f = build_floor_set(h, 10**4)
    same = np.array_equal(s.members, f.members[f.members >= s.n_min])
    return bool(same), f"{len(s)} members agree"


def check_exp_sum_trivial():
    b = _xlogx_plus(4000)
    at0 = exp_sum(b, [0.0])[0]
    ok = at0 == complex(len(b))
    s = build_floor_set(_x15(), 12)
    half = exp_sum(s, [0.5])[0]
    ok = ok and abs(half - (-1.0)) < 1e-12
    return bool(ok), f"xi=0 count {at0.real:.0f}, parity sum {half.real:+.3f}"


def check_dirichlet_trivial():
    ok = dirichlet_sum(23, 0.0) == 23
    ok = ok and abs(dirichlet_sum(4, 0.5)) < 1e-12
    return bool(ok), "closed form at xi = 0 and 1/2"


def check_sawtooth_values():
    ok = _expsum.sawtooth(0.25) == -0.25 and _expsum.sawtooth(7.0) == -0.5
    return bool(ok), "sawtooth at 0.25 and integers"


def check_sawtooth_envelope(M: int = 64):
    """Truncation error against min(1, 1/(M ||x||)); expsum.sawtooth is
    read at call time, so a test can mutate it to check the check."""
    x = np.linspace(0.001, 0.999, 1999)
    err = np.abs(_expsum.sawtooth(x) - _expsum.sawtooth_truncated(x, M))
    K = float(np.max(err / sawtooth_envelope(x, M)))
    return K <= 2.0, f"fitted envelope constant {K:.3f} at M={M}"


def check_measures_trivial():
    nu = measure_nu(500)
    ok = abs(nu.total_mass - 1.0) < 1e-12
    ok = ok and abs(fourier_of_measure(nu, [0.37])[0]
                    - dirichlet_sum(500, 0.37) / 500) < 1e-12
    f = TrigPoly(np.arange(1, 65), np.ones(64))
    out = ttstar_apply(f, measure_nu(64))
    ok = ok and np.allclose(out.coeffs, 1.0 / 64)
    return bool(ok), "nu mass, transform, TT* scaling"


def check_p2_estimate_is_one():
    est = estimate_constant([0, 1, 3], 2.0, seed=1)
    return abs(est.value - 1.0) <= 1e-9, f"value {est.value!r}"


def check_vdc_empty():
    phi = InverseFn(_xlogx())
    return vdc_sum(1, 0, 0.1, 50.2, 50.8, phi) == 0, "empty range sums to 0"


def check_triangle_inequality():
    b = _xlogx_plus(20000)
    xi = float(golden_xis(1)[0])
    got = abs(exp_sum(b, [xi])[0])
    return got <= len(b) * (1 + 1e-12), f"|S| = {got:.2f} <= {len(b)}"


# ------------------------------------------------ acceptance criteria 1-10


def _sci(N) -> str:
    return f"{N:.0e}".replace("e+0", "e").replace("e+", "e")


def check_cardinality(Ns=(10**4, 10**5, 10**6)):
    """Criterion 1: |B_N| / phi2(N) tends to 1 and |ratio - 1| decays."""
    last = count_sweep(_xlogx_plus, Ns)[-1]
    ok = 0.95 <= last.ratio <= 1.05 and last.exponent < 0
    return ok, (f"ratio({_sci(Ns[-1])}) = {last.ratio:.5f}, "
                f"|ratio-1| exponent = {last.exponent:.3f}")


def check_structural_identities(N=10**5):
    """Criterion 2: plus set = floor characterization, minus set = floor
    image, up to the guard band; borderline memberships stay rare."""
    guard = 1e-9
    h = _xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    n = np.arange(psi.n_min, N + 1)
    frac_member, margin = member_frac(n, phi, psi, "plus")
    disagree = frac_member != member_floor_characterization(n, phi, psi)
    equiv = int(np.count_nonzero(disagree & (np.abs(margin) >= guard)))
    minus = build_frac_set(SetSpec("frac_minus", h, h, N))
    floor_img = build_floor_set(h, N)
    expected = floor_img.members[floor_img.members >= minus.n_min]
    sets = sum(int(abs(member_frac(int(m), phi, psi, "minus")[1]) >= guard)
               for m in np.setxor1d(minus.members, expected))
    borderline = minus.borderline_fraction
    ok = equiv == 0 and sets == 0 and borderline <= 1e-6
    return ok, (f"equiv mismatches = {equiv}, set mismatches = {sets}, "
                f"borderline fraction = {borderline:.2e}")


def check_eq20_decay(Ns=(10**4, 10**5, 10**6), xis=None):
    """Criterion 3: error_term / phi2(N) decays at every xi (default: golden)."""
    xis = [float(golden_xis(1)[0])] if xis is None else xis
    rows = per_xi_sweep("expsum-decay", _xlogx_plus, Ns, xis)
    # the rows of the first N: one per xi, with the slope of that xi
    slopes = {r.params["xi"]: r.exponent for r in rows[:len(xis)]}
    ok = all(s <= -0.05 for s in slopes.values())
    return ok, "error/phi2 exponents " + ", ".join(
        f"{xi:.3f}: {s:.3f}" for xi, s in slopes.items())


def check_lemma1_envelope(levels=(2**10, 2**12, 2**14, 2**16, 2**18),
                          m_max=16, n_xis=4):
    """Criterion 4: |VdC sum| / lemma1_bound is bounded, without growth."""
    phi = InverseFn(_xlogx())
    rows = vdc_ratio_sweep(phi, PsiFn(phi), m_max=m_max,
                           xi_list=golden_xis(n_xis), levels=levels)
    ratios = np.array([r.ratio for r in rows])
    slope = rows[0].exponent
    ok = np.isfinite(ratios).all() and ratios.max() <= 50 and slope <= 0.02
    return ok, (f"max |sum|/bound = {ratios.max():.4f} (fitted constant), "
                f"growth slope = {slope:.3f}")


def check_norm_engine(seed=5150, parseval_trials=20, oracle_trials=4):
    """Criterion 5: lp_norm against Parseval (p = 2), the even-p oracle
    (p = 4, 6) on random sparse polynomials, and 6^(1/4) for two terms."""
    rng = np.random.default_rng(seed)

    def random_poly(size, top):
        support = np.sort(rng.choice(top, size=size, replace=False))
        return TrigPoly(support, rng.standard_normal(size)
                        + 1j * rng.standard_normal(size))

    parseval = 0.0
    for _ in range(parseval_trials):
        size = int(rng.integers(2, 48))
        P = random_poly(size, int(rng.integers(size, 2**16)) + 1)
        parseval = max(parseval, abs(lp_norm(P, 2.0).value - P.l2_coeff_norm()))
    oracle = 0.0
    for _ in range(oracle_trials):
        P = random_poly(int(rng.integers(4, 65)), 3000)
        for p in (4, 6):
            exact = even_p_oracle(P, p) ** (1.0 / p)
            oracle = max(oracle, abs(lp_norm(P, float(p)).value - exact) / exact)
    pair = abs(lp_norm(TrigPoly([1, 2], [1.0, 1.0]), 4.0).value - 6 ** 0.25)
    ok = parseval <= 1e-10 and oracle <= 1e-8 and pair <= 1e-10
    return ok, (f"Parseval {parseval:.2e}, oracle rel {oracle:.2e}, "
                f"pair-set p=4 err {pair:.2e}")


def check_even_p_exactness(n_sets=5, Ns=(10**4,)):
    """Criterion 6: for even p no estimate exceeds the constant 1."""
    rng = np.random.default_rng(61)
    worst = 1.0
    for _ in range(n_sets):
        size = int(rng.integers(3, 14))
        top = int(rng.integers(size + 1, 400))
        A = np.sort(rng.choice(top, size=size, replace=False))
        for p in (2.0, 4.0, 6.0):
            est = estimate_constant(A, p, seed=int(rng.integers(2**32)),
                                    restarts=4, max_iter=30)
            worst = max(worst, est.value)
    for N in Ns:
        b = _xlogx_plus(N)
        for p in (2.0, 4.0, 6.0):
            est = estimate_constant(b, p, seed=7, budget=60, restarts=2,
                                    max_iter=15)
            worst = max(worst, est.value)
    return worst <= 1 + 1e-6, f"max even-p estimate = {worst!r}"


def check_c3_phenomenon():
    """Criterion 7: at p = 3 signs on {0, 1, 3} beat 1, as found by search."""
    bf = brute_force_constant([0, 1, 3], 3.0, "signs")
    est = estimate_constant([0, 1, 3], 3.0, seed=1)
    gap = abs(est.value - bf.value)
    return bf.value >= 1.0005 and gap <= 1e-6, (
        f"brute force = {bf.value:.6f} on {{0,1,3}}, |estimate - bf| = {gap:.2e}")


def check_uniformity(Ns=(2**8, 2**9, 2**10, 2**11), budget=200, seed=77):
    """Criterion 8: p = 2.5 estimates do not grow and stay below the envelope."""
    rows, _ = uniformity_sweep(_xlogx_plus, 2.5, Ns, budget=budget, seed=seed)
    slope = rows[0].exponent
    below = all(r.value <= r.reference for r in rows)
    return slope <= 0.02 and below, (
        f"estimate slope = {slope:.4f}, "
        f"values {[round(r.value, 6) for r in rows]}, below envelope: {below}")


def check_prop2(Ns=(2**10, 2**12, 2**14), trials=6, seed=4):
    """Criterion 9: restriction ratios do not grow, sup |F(mu - nu)| decays."""
    h1 = _xlogx()
    # the c2 = 1.1 window with a log factor opens at small n, so the
    # dyadic sweep sits in the asymptotic regime from the start
    h2 = RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))
    p = p_threshold(h1.c, h2.c) + 0.5
    rows = restriction_sweep(
        lambda N: build_frac_set(SetSpec("frac_plus", h1, h2, N)), p, Ns,
        trials=trials, seed=seed)
    slope, sup_slope = rows[0].exponent, rows[1].exponent
    return slope <= 0.02 and sup_slope < 0, (
        f"p = {p:.2f}, ratio slope = {slope:.4f}, "
        f"mu-nu sup exponent = {sup_slope:.3f}")


def check_threshold_formula():
    """Criterion 10: p(c1, 1) = 2, p(1, 6/5 - 0) = 6, p nondecreasing in c2."""
    exact_two = all(p_threshold(c1, 1.0) == 2.0 for c1 in (1.0, 1.25, 1.5, 1.9))
    endpoint = abs(p_threshold(1.0, 6 / 5 - 1e-9) - 6.0) <= 1e-6
    c2s = np.linspace(1.0, 6 / 5 - 1e-9, 20)
    monotone = all(b > a - 1e-12
                   for c1 in (1.0, 1.5, 1.9)
                   for a, b in itertools.pairwise(p_threshold(c1, c2) for c2 in c2s))
    return exact_two and endpoint and monotone, (
        f"c2=1 column exact: {exact_two}, endpoint-6 ok: {endpoint}, "
        f"monotone: {monotone}")


# ----------------------------------------------- further reduced-size checks


def check_lemma2_reduced(Ns=(10**4, 10**5, 10**6)):
    """Lemma 2 at xi = 0: the inverse-weight deviation grows slower than N."""
    slope = per_xi_sweep("lemma2", _xlogx_plus, Ns, [0.0])[0].exponent
    return slope < 1.0, f"deviation growth exponent {slope:.3f}"


def check_sparsity_concrete():
    d4 = len(_xlogx_plus(10**4)) / 10**4
    d7 = len(_xlogx_plus(10**7)) / 10**7
    return d7 < d4, f"density {d4:.4f} at 1e4 vs {d7:.4f} at 1e7"


QUICK_CHECKS = [
    ("h fixed points", check_h_fixed_points),
    ("inverse round trip", check_inverse_round_trip),
    ("inverse derivative power rule", check_phi_power_rule),
    ("psi window sandwich", check_psi_sandwich),
    ("floor set example", check_floor_set_example),
    ("integer-phase membership", check_integer_phase_membership),
    ("minus set equals floor image", check_minus_set_equals_floor_image),
    ("exponential sums at pinned frequencies", check_exp_sum_trivial),
    ("Dirichlet closed form", check_dirichlet_trivial),
    ("sawtooth values", check_sawtooth_values),
    ("sawtooth truncation envelope", check_sawtooth_envelope),
    ("norm engine", check_norm_engine),
    ("measures and TT*", check_measures_trivial),
    ("threshold formula", check_threshold_formula),
    ("p=2 constant is one", check_p2_estimate_is_one),
    ("empty Van der Corput range", check_vdc_empty),
    ("triangle inequality", check_triangle_inequality),
]

FULL_CHECKS = [
    ("cardinality vs phi2 (reduced)", check_cardinality),
    ("floor characterization agreement (reduced)", check_structural_identities),
    ("set exp-sum model decay (reduced)", check_eq20_decay),
    ("curvature-bound envelope (reduced)", check_lemma1_envelope),
    ("inverse-weight vs Dirichlet growth (reduced)", check_lemma2_reduced),
    ("even-p ceiling on a built set", check_even_p_exactness),
    ("third-moment phenomenon", check_c3_phenomenon),
    ("vanishing density, concretely", check_sparsity_concrete),
    ("restriction ratios (reduced)", check_prop2),
    ("uniformity mini sweep", check_uniformity),
]


def suite(level: str = "quick") -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    checks = list(QUICK_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    report = VerifyReport()
    for name, fn in checks:
        lvl = "quick" if (name, fn) in QUICK_CHECKS else "full"
        try:
            passed, measured = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, measured = False, f"raised {type(exc).__name__}: {exc}"
        report.results.append(CheckResult(name, lvl, bool(passed), measured))
    return report
