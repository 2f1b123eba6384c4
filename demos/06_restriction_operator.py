#!/usr/bin/env python3
"""The weighted measure, the extension operator, and its TT* composition.

The measure mu_N reweights the sparse set so that its transform mimics
the uniform measure nu_N; the sup of |F(mu_N - nu_N)| shrinks with N,
and the restriction ratios stay bounded at an admissible exponent.
"""

import numpy as np

from majorantlab import (
    RegVaryFn,
    SetSpec,
    SlowlyVaryingSpec,
    TrigPoly,
    build_frac_set,
    fit_loglog_slope,
    fourier_of_measure,
    measure_mu,
    measure_nu,
    p_threshold,
    restriction_ratio_max,
    ttstar_apply,
)
from majorantlab.trigpoly import fourier_sup_of_difference


def main():
    h1 = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    h2 = RegVaryFn(1.1, SlowlyVaryingSpec("log_power", B=1.0))

    N = 2**12
    b = build_frac_set(SetSpec("frac_plus", h1, h2, N))
    mu = measure_mu(b)
    nu = measure_nu(N)
    print(f"N = {N}: |B_N| = {len(b)}, total masses "
          f"mu = {mu.total_mass:.4f}, nu = {nu.total_mass:.4f}")
    print(f"   F(mu)(0.31) = {fourier_of_measure(mu, [0.31])[0]:.6f}")
    print(f"   F(nu)(0.31) = {fourier_of_measure(nu, [0.31])[0]:.6f}")
    print()

    print("sup |F(mu_N - nu_N)| across N:")
    Ns = [2**10, 2**12, 2**14, 2**16]
    sups = []
    for n in Ns:
        bn = build_frac_set(SetSpec("frac_plus", h1, h2, n))
        sup, grid = fourier_sup_of_difference(measure_mu(bn), measure_nu(n))
        sups.append(sup)
        print(f"   N = {n:>6}: sup = {sup:.5f} (grid {grid})")
    print(f"   fitted exponent: {fit_loglog_slope(Ns, sups):.3f}")
    print()

    # TT* multiplies Fourier coefficients by the masses
    f = TrigPoly(mu.atoms[:5], np.ones(5, dtype=complex))
    out = ttstar_apply(f, mu)
    print("TT* on a 5-term polynomial supported in B_N:")
    print("   masses applied:", np.round(out.coeffs.real, 6).tolist())
    print()

    p = p_threshold(1.0, 1.1) + 0.5
    ratio = restriction_ratio_max(b, p, trials=8, seed=3)
    print(f"largest restriction ratio at p = {p:.2f} over all-ones and 7 "
          f"random f: {ratio:.4f}")
    print("   bounded across N per the TT* estimate")


if __name__ == "__main__":
    main()
