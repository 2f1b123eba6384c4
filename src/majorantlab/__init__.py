"""Numerical laboratory for exponential sums over sparse integer sets
and the majorant property of their trigonometric polynomials."""

from .errors import (
    AdmissibilityError,
    CapacityError,
    ConvergenceError,
    DomainError,
    MajorantLabError,
)
from .expsum import (
    decompose_I,
    dirichlet_sum,
    error_term,
    exp_sum,
    lemma1_bound,
    model_sum,
    per_xi_sweep,
    sawtooth,
    sawtooth_truncated,
    vdc_bound,
    vdc_sum,
    weighted_inverse_vs_dirichlet,
)
from .majorant import (
    MajorantEstimate,
    brute_force_constant,
    estimate_constant,
    hy_envelope,
    p_threshold,
    uniformity_sweep,
)
from .rvfunc import InverseFn, PsiFn, RegVaryFn, SlowlyVaryingSpec
from .sparseset import (
    SetSpec,
    SparseSet,
    build_floor_set,
    build_frac_set,
    build_set,
    count_sweep,
    load_set,
    member_floor_characterization,
    member_frac,
)
from .sweeps import SweepResult, derive_seed, fit_loglog_slope, golden_xis
from .trigpoly import (
    DiscreteMeasure,
    QuadratureResult,
    TrigPoly,
    even_p_oracle,
    extension_poly,
    fourier_of_measure,
    lower_bound_lowfreq,
    lp_norm,
    measure_mu,
    measure_nu,
    restriction_ratio_max,
    restriction_sweep,
    ttstar_apply,
)

__all__ = [
    "AdmissibilityError", "CapacityError", "ConvergenceError", "DomainError",
    "MajorantLabError",
    "SlowlyVaryingSpec", "RegVaryFn", "InverseFn", "PsiFn",
    "SetSpec", "SparseSet", "build_floor_set", "build_frac_set", "build_set",
    "load_set", "member_frac", "member_floor_characterization", "count_sweep",
    "exp_sum", "model_sum", "dirichlet_sum", "error_term",
    "sawtooth", "sawtooth_truncated", "vdc_sum", "vdc_bound", "lemma1_bound",
    "decompose_I", "weighted_inverse_vs_dirichlet", "per_xi_sweep",
    "TrigPoly", "QuadratureResult", "DiscreteMeasure", "lp_norm",
    "even_p_oracle", "lower_bound_lowfreq", "measure_mu", "measure_nu",
    "fourier_of_measure", "extension_poly", "ttstar_apply",
    "restriction_ratio_max", "restriction_sweep",
    "MajorantEstimate", "p_threshold", "estimate_constant",
    "brute_force_constant", "hy_envelope", "uniformity_sweep",
    "SweepResult", "derive_seed", "fit_loglog_slope", "golden_xis",
]

__version__ = "0.1.0"
