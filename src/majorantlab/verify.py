"""Self-check suite: quick exact checks and reduced-size sweep checks.

quick: closed-form identities and structural checks, runs in seconds.
full:  adds the decay sweeps at reduced sizes; the report then carries
       the fitted exponents next to each verdict.

Each check returns (passed, measured) where measured is a short printable
summary of what was observed; the CLI turns failures into exit code 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expsum as _expsum
from .expsum import (
    ExpSumRequest,
    dirichlet_sum,
    error_term,
    exp_sum,
    sawtooth_envelope,
    vdc_sum,
    weighted_inverse_vs_dirichlet,
)
from .majorant import (
    MajorantProblem,
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
    member_floor_characterization,
    member_frac,
)
from .sweeps import fit_loglog_slope, golden_xis
from .trigpoly import (
    TrigPoly,
    even_p_oracle,
    fourier_of_measure,
    fourier_sup_of_difference,
    lp_norm,
    measure_mu,
    measure_nu,
    restriction_ratios,
    ttstar_apply,
)


def _xlogx():
    return RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))


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
    h = _xlogx()
    b = build_frac_set(SetSpec("frac_plus", h, h, 4000))
    at0 = exp_sum(ExpSumRequest(b, 0.0, "unit"))
    ok = at0 == complex(len(b))
    s = build_floor_set(_x15(), 12)
    half = exp_sum(ExpSumRequest(s, 0.5, "unit"))
    ok = ok and abs(half - (-1.0)) < 1e-12
    return bool(ok), f"xi=0 count {at0.real:.0f}, parity sum {half.real:+.3f}"


def check_dirichlet_trivial():
    ok = dirichlet_sum(23, 0.0) == 23
    ok = ok and abs(dirichlet_sum(4, 0.5)) < 1e-12
    return bool(ok), "closed form at xi = 0 and 1/2"


def check_sawtooth_values():
    ok = _expsum.sawtooth(0.25) == -0.25 and _expsum.sawtooth(7.0) == -0.5
    return bool(ok), "sawtooth at 0.25 and integers"


def check_sawtooth_envelope(sawtooth_fn=None, M: int = 64):
    """Truncation error against min(1, 1/(M ||x||)); the sawtooth under
    test is injectable so the suite itself can be mutation-tested."""
    fn = sawtooth_fn if sawtooth_fn is not None else _expsum.sawtooth
    x = np.linspace(0.001, 0.999, 1999)
    err = np.abs(fn(x) - _expsum.sawtooth_truncated(x, M))
    K = float(np.max(err / sawtooth_envelope(x, M)))
    return K <= 2.0, f"fitted envelope constant {K:.3f} at M={M}"


def check_parseval():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(50):
        support = np.sort(rng.choice(4096, size=20, replace=False))
        coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        P = TrigPoly(support, coeffs)
        worst = max(worst, abs(lp_norm(P, 2.0).value - P.l2_coeff_norm()))
    return worst <= 1e-10, f"max |quadrature - l2| = {worst:.2e}"


def check_two_term_p4():
    v = lp_norm(TrigPoly([1, 2], [1.0, 1.0]), 4.0).value
    ok = abs(v - 6 ** 0.25) < 1e-10
    ok = ok and abs(even_p_oracle(TrigPoly([1, 2], [1.0, 1.0]), 4) - 6.0) < 1e-12
    return bool(ok), f"||.||_4 = {v!r}"


def check_measures_trivial():
    nu = measure_nu(500)
    ok = abs(nu.total_mass - 1.0) < 1e-12
    ok = ok and abs(fourier_of_measure(nu, 0.37)
                    - dirichlet_sum(500, 0.37) / 500) < 1e-12
    f = TrigPoly(np.arange(1, 65), np.ones(64))
    out = ttstar_apply(f, measure_nu(64))
    ok = ok and np.allclose(out.coeffs, 1.0 / 64)
    return bool(ok), "nu mass, transform, TT* scaling"


def check_threshold_formula():
    ok = all(p_threshold(c1, 1.0) == 2.0 for c1 in (1.0, 1.25, 1.5, 1.9))
    ok = ok and abs(p_threshold(1.0, 6 / 5 - 1e-9) - 6.0) < 1e-6
    return bool(ok), "p(c1,1) = 2 and p(1, 6/5) = 6"


def check_p2_estimate_is_one():
    est = estimate_constant(MajorantProblem(np.array([0, 1, 3]), 3, 2.0, seed=1))
    return abs(est.value - 1.0) <= 1e-9, f"value {est.value!r}"


def check_vdc_empty():
    phi = InverseFn(_xlogx())
    return vdc_sum(1, 0, 0.1, 50.2, 50.8, phi) == 0, "empty range sums to 0"


def check_triangle_inequality():
    h = _xlogx()
    b = build_frac_set(SetSpec("frac_plus", h, h, 20000))
    xi = float(golden_xis(1)[0])
    got = abs(exp_sum(ExpSumRequest(b, xi, "unit")))
    return got <= len(b) * (1 + 1e-12), f"|S| = {got:.2f} <= {len(b)}"


# ------------------------------------------------------------- full checks


def check_cardinality_reduced():
    h = _xlogx()
    phi = InverseFn(h)
    Ns = [10**4, 10**5, 10**6]
    ratios = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        ratios.append(len(b) / phi.invert(float(N)))
    slope = fit_loglog_slope(Ns, np.abs(np.array(ratios) - 1.0))
    ok = abs(ratios[-1] - 1.0) <= 0.05 and slope < 0
    return ok, f"ratio(1e6) = {ratios[-1]:.4f}, |ratio-1| exponent {slope:.2f}"


def check_equivalence_reduced():
    h = _xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    n = np.arange(psi.n_min, 10**5 + 1)
    a, _ = member_frac(n, phi, psi, "plus")
    b = member_floor_characterization(n, phi, psi)
    mism = int(np.count_nonzero(a != b))
    return mism == 0, f"{mism} mismatches to 1e5"


def check_eq20_decay_reduced():
    h = _xlogx()
    phi = InverseFn(h)
    xi = float(golden_xis(1)[0])
    Ns = [10**4, 10**5, 10**6]
    rel = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        rel.append(error_term(b, xi) / phi.invert(float(N)))
    slope = fit_loglog_slope(Ns, rel)
    return slope <= -0.05, f"error/phi2 exponent {slope:.3f} (golden xi)"


def check_lemma1_envelope_reduced():
    from .expsum import vdc_ratio_sweep

    h = _xlogx()
    phi = InverseFn(h)
    psi = PsiFn(phi)
    levels = [2**j for j in range(10, 19, 2)]
    rows = vdc_ratio_sweep(phi, psi, m_max=16, xi_list=golden_xis(4),
                           levels=levels)
    ratios = np.array([r.ratio for r in rows])
    Ns = np.array([r.params["N"] for r in rows])
    per_level = [ratios[Ns == N].max() for N in levels]
    slope = fit_loglog_slope(levels, per_level)
    ok = ratios.max() <= 50 and slope <= 0.02
    return ok, f"max ratio {ratios.max():.3f}, growth slope {slope:.3f}"


def check_lemma2_reduced():
    h = _xlogx()
    Ns = [10**4, 10**5, 10**6]
    devs = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h, h, N))
        devs.append(weighted_inverse_vs_dirichlet(b, 0.0))
    slope = fit_loglog_slope(Ns, devs)
    return slope < 1.0, f"deviation growth exponent {slope:.3f}"


def check_even_p_ceiling_on_set():
    h = _xlogx()
    b = build_frac_set(SetSpec("frac_plus", h, h, 10**4))
    est = estimate_constant(
        MajorantProblem(b.members, 10**4, 4.0, budget=60, seed=9),
        restarts=4, max_iter=20)
    return est.value <= 1 + 1e-6, f"p=4 estimate {est.value!r}"


def check_c3_phenomenon():
    bf = brute_force_constant([0, 1, 3], 3.0, "signs")
    return bf.value >= 1.0005, f"best sign ratio {bf.value:.6f} on {{0,1,3}}"


def check_sparsity_concrete():
    h = _xlogx()
    d4 = len(build_frac_set(SetSpec("frac_plus", h, h, 10**4))) / 10**4
    d7 = len(build_frac_set(SetSpec("frac_plus", h, h, 10**7))) / 10**7
    return d7 < d4, f"density {d4:.4f} at 1e4 vs {d7:.4f} at 1e7"


def check_prop2_reduced():
    h1 = _xlogx()
    # the c2 = 1.1 window with a log factor opens at small n, so the
    # dyadic sweep sits in the asymptotic regime from the start
    h2 = RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))
    p = p_threshold(1.0, 1.1) + 0.5
    Ns = [2**10, 2**12, 2**14]
    maxima = []
    sups = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", h1, h2, N))
        maxima.append(max(restriction_ratios(b, p, trials=6, seed=4)))
        sup, _ = fourier_sup_of_difference(measure_mu(b), measure_nu(N))
        sups.append(sup)
    slope = fit_loglog_slope(Ns, maxima)
    sup_slope = fit_loglog_slope(Ns, sups)
    ok = slope <= 0.02 and sup_slope < 0
    return ok, f"ratio slope {slope:.3f}, mu-nu sup exponent {sup_slope:.2f}"


def check_uniformity_mini():
    h = _xlogx()

    def build(N):
        return build_frac_set(SetSpec("frac_plus", h, h, N))

    rows, _ = uniformity_sweep(build, 2.5, [2**8, 2**9, 2**10, 2**11],
                               budget=200, seed=77)
    slope = rows[0].exponent
    below = all(r.value <= r.reference for r in rows)
    return slope <= 0.02 and below, f"estimate slope {slope:.4f}, below envelope {below}"


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
    ("Parseval agreement", check_parseval),
    ("two-term fourth norm", check_two_term_p4),
    ("measures and TT*", check_measures_trivial),
    ("threshold formula", check_threshold_formula),
    ("p=2 constant is one", check_p2_estimate_is_one),
    ("empty Van der Corput range", check_vdc_empty),
    ("triangle inequality", check_triangle_inequality),
]

FULL_CHECKS = [
    ("cardinality vs phi2 (reduced)", check_cardinality_reduced),
    ("floor characterization agreement (reduced)", check_equivalence_reduced),
    ("set exp-sum model decay (reduced)", check_eq20_decay_reduced),
    ("curvature-bound envelope (reduced)", check_lemma1_envelope_reduced),
    ("inverse-weight vs Dirichlet growth (reduced)", check_lemma2_reduced),
    ("even-p ceiling on a built set", check_even_p_ceiling_on_set),
    ("third-moment phenomenon", check_c3_phenomenon),
    ("vanishing density, concretely", check_sparsity_concrete),
    ("restriction ratios (reduced)", check_prop2_reduced),
    ("uniformity mini sweep", check_uniformity_mini),
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
