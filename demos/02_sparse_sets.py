#!/usr/bin/env python3
"""Constructing the sparse sets and checking their structure.

The floor image {floor(h(n))} and the fractional-part set
{n : {-phi(n)} < psi(n)} are built independently and compared; the
cardinality of the plus set is tracked against phi2(N).
"""

import numpy as np

from majorantlab import (
    InverseFn,
    RegVaryFn,
    SetSpec,
    SlowlyVaryingSpec,
    build_floor_set,
    build_frac_set,
    fit_loglog_slope,
)


def main():
    h = RegVaryFn(1.5, SlowlyVaryingSpec("constant_one"), x0=1.0)
    floor_set = build_floor_set(h, 50)
    print("floor image of x^1.5 up to 50:", floor_set.members.tolist())

    minus = build_frac_set(SetSpec("frac_minus", h, h, 50))
    print(f"minus-signed fractional set (n >= {minus.n_min}):",
          minus.members.tolist())
    shared = floor_set.members[floor_set.members >= minus.n_min]
    print("identical to the floor image on the shared range:",
          np.array_equal(minus.members, shared))
    print()

    hx = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    phi = InverseFn(hx)
    print("cardinality of the x log x plus-set against phi2(N):")
    Ns = [10**4, 10**5, 10**6]
    ratios = []
    for N in Ns:
        b = build_frac_set(SetSpec("frac_plus", hx, hx, N))
        ref = phi.invert(float(N))
        ratios.append(len(b) / ref)
        print(f"   N = {N:>8}: |B_N| = {len(b):>6}, "
              f"phi2(N) = {ref:10.1f}, ratio = {ratios[-1]:.5f}")
    slope = fit_loglog_slope(Ns, np.abs(np.array(ratios) - 1.0))
    print(f"   fitted exponent of |ratio - 1|: {slope:.3f}")
    print()

    print(f"density at 1e6: {len(b) / 1e6:.5f} "
          f"(borderline memberships: {b.borderline_count})")
    print(f"phi2(1e6)/1e6 = {phi.invert(1e6) / 1e6:.5f}")


if __name__ == "__main__":
    main()
