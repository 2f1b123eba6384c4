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
    count_sweep,
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
    # the rows of the count subcommand and of acceptance criterion 1
    print("cardinality of the x log x plus-set against phi2(N):")
    rows = count_sweep(lambda N: build_frac_set(SetSpec("frac_plus", hx, hx, N)),
                       [10**4, 10**5, 10**6])
    for r in rows:
        print(f"   N = {r.params['N']:>8}: |B_N| = {r.value:>6.0f}, "
              f"phi2(N) = {r.reference:10.1f}, ratio = {r.ratio:.5f}")
    print(f"   fitted exponent of |ratio - 1|: {rows[0].exponent:.3f}")
    print()

    last = rows[-1]
    print(f"density at 1e6: {last.value / 1e6:.5f} "
          f"(borderline memberships: {last.borderline_count})")
    print(f"phi2(1e6)/1e6 = {phi.invert(1e6) / 1e6:.5f}")


if __name__ == "__main__":
    main()
