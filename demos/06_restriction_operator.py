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
    fourier_of_measure,
    measure_mu,
    measure_nu,
    p_threshold,
    restriction_sweep,
    ttstar_apply,
)


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

    # both rows of every N come from one restriction_sweep, which builds
    # mu_N once per N; test functions: all-ones and 7 random f
    p = p_threshold(1.0, 1.1) + 0.5
    Ns = [2**10, 2**12, 2**14, 2**16]
    rows = restriction_sweep(
        lambda n: build_frac_set(SetSpec("frac_plus", h1, h2, n)), p, Ns,
        trials=8, seed=3)
    ratios, sups = rows[0::2], rows[1::2]
    print(f"sup |F(mu_N - nu_N)| and the largest restriction ratio at "
          f"p = {p:.2f} across N:")
    for r, s in zip(ratios, sups):
        print(f"   N = {r.params['N']:>6}: sup = {s.value:.5f} "
              f"(grid {s.params['grid']}), ratio = {r.value:.4f}")
    print(f"   fitted exponents: sup {sups[0].exponent:.3f}, "
          f"ratio {ratios[0].exponent:.4f}")
    print("   the ratio stays bounded across N per the TT* estimate")
    print()

    # TT* multiplies Fourier coefficients by the masses
    f = TrigPoly(mu.atoms[:5], np.ones(5, dtype=complex))
    out = ttstar_apply(f, mu)
    print("TT* on a 5-term polynomial supported in B_N:")
    print("   masses applied:", np.round(out.coeffs.real, 6).tolist())


if __name__ == "__main__":
    main()
