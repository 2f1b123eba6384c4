#!/usr/bin/env python3
"""Majorant constants: the odd-p phenomenon and the no-growth check.

For even p the best unimodular coefficients do no better than all ones;
at p = 3 a three-term set already beats 1.  Across growing sparse sets
the estimated constants show no growth trend, the desk-scale face of
uniform boundedness.  estimate_constant(A, p) and
brute_force_constant(A, p) take the same two inputs: the frequency
set and the exponent.
"""

import numpy as np

from majorantlab import (
    RegVaryFn,
    SetSpec,
    SlowlyVaryingSpec,
    brute_force_constant,
    build_frac_set,
    estimate_constant,
    p_threshold,
    uniformity_sweep,
)


def main():
    A = [0, 1, 3]
    bf = brute_force_constant(A, 3.0, "signs")
    print(f"p = 3 on {{0, 1, 3}}: best sign ratio = {bf.value:.6f}")
    print(f"   achieved by coefficients {np.round(bf.argmax_coeffs).real.astype(int)}")
    for p in (2.0, 4.0):
        est = estimate_constant(A, p, seed=1)
        print(f"p = {p}: estimate = {est.value:.8f} (even p gives exactly 1)")
    print()

    print("threshold exponent p(c1, c2):")
    for c1, c2 in ((1.0, 1.0), (1.0, 1.1), (1.0, 6 / 5 - 1e-9), (1.5, 1.1)):
        print(f"   p({c1}, {c2:.3f}) = {p_threshold(c1, c2):.4f}")
    print()

    h = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))

    def build(N):
        return build_frac_set(SetSpec("frac_plus", h, h, N))

    print("uniformity across N at p = 2.5 (x log x family, small budget):")
    rows, _ = uniformity_sweep(build, 2.5, [2**8, 2**9, 2**10, 2**11],
                               budget=300, seed=11)
    for r in rows:
        print(f"   N = {r.params['N']:>5}: lower estimate {r.value:.6f}, "
              f"envelope {r.reference:.2f}")
    print(f"   fitted growth slope: {rows[0].exponent:.4f} (flat = bounded)")


if __name__ == "__main__":
    main()
