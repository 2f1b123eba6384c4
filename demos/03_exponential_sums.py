#!/usr/bin/env python3
"""Exponential sums over a sparse set versus the smooth model.

Shows the error term, its sawtooth decomposition into the explicit
double sum plus two envelope pieces, and the curvature-bound ratios.
"""

from majorantlab import (
    InverseFn,
    PsiFn,
    RegVaryFn,
    SetSpec,
    SlowlyVaryingSpec,
    build_frac_set,
    decompose_I,
    exp_sum,
    golden_xis,
    lemma1_bound,
    model_sum,
    per_xi_sweep,
    vdc_sum,
)


def main():
    h = RegVaryFn(1.0, SlowlyVaryingSpec("log_power", B=1.0))
    phi = InverseFn(h)
    xi = float(golden_xis(1)[0])

    # the rows of the expsum-decay subcommand and of acceptance criterion 3
    print(f"error term at the golden frequency xi = {xi:.6f}:")
    rows = per_xi_sweep(
        "expsum-decay", lambda N: build_frac_set(SetSpec("frac_plus", h, h, N)),
        [10**4, 10**5, 10**6], [xi])
    for r in rows:
        print(f"   N = {r.params['N']:>8}: |S - model| = {r.value:10.3f},  "
              f"/phi2 = {r.ratio:.2e}")
    print(f"   fitted decay exponent: {rows[0].exponent:.3f}")
    print()

    N = 10**4
    b = build_frac_set(SetSpec("frac_plus", h, h, N))
    S = (exp_sum(b, [xi]) - model_sum(N, [xi], "psi", psi=b.psi))[0]
    I1, I2, I3 = decompose_I(b, xi, M=64)
    print(f"sawtooth decomposition at N = {N}, M = 64:")
    print(f"   exact error sum   = {abs(S):.4f}")
    print(f"   explicit piece I1 = {abs(I1):.4f}")
    print(f"   envelope pieces I2 = {I2:.4f}, I3 = {I3:.4f}")
    print(f"   |S - I1| = {abs(S - I1):.4f} <= 2(I2 + I3) = {2 * (I2 + I3):.4f}")
    print()

    psi = PsiFn(phi)
    print("phase sums against the curvature bound (constant 1):")
    for m in (1, 4, 16):
        X = 2.0**16
        s = abs(vdc_sum(m, 1, xi, X, 2 * X, phi, psi))
        bound = lemma1_bound(m, 2 * X, phi)
        print(f"   m = {m:>2}: |sum over [2^16, 2^17]| = {s:9.2f},  "
              f"bound = {bound:10.1f},  ratio = {s / bound:.4f}")


if __name__ == "__main__":
    main()
