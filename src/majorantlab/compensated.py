"""Error-free float transforms and accurate fractional parts.

Membership tests and phase sums need fractional parts of quantities like
xi*n or m*phi(n) where the integer part eats most of the 53-bit mantissa.
The helpers here recover the rounding error of products (Dekker splitting)
and reduce head/tail value pairs mod 1 without losing the tail.
"""

from __future__ import annotations

import numpy as np

# 2^27 + 1, splits a double into two 26/27-bit halves whose products are exact
_SPLITTER = 134217729.0


def split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Return (p, e) with p = fl(a*b) and p + e == a * b exactly.

    Requires no overflow in the splitting; fine for the magnitudes used
    here (|a*b| well below 1e300).
    """
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def wrap_unit(f):
    """Fold values in (-1, 2) back into [0, 1)."""
    f = np.where(f >= 1.0, f - 1.0, f)
    f = np.where(f < 0.0, f + 1.0, f)
    # 0.9999... + tiny can round to exactly 1.0 after the fold
    return np.where(f >= 1.0, 0.0, f)


def frac_product(a, b):
    """Fractional part of a*b, exact to roundoff of the reduction.

    Both factors must be exactly representable doubles with |a*b| < 2^53
    (e.g. a frequency in [0,1) times an integer index).
    """
    p, e = two_prod(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return wrap_unit((p - np.floor(p)) + e)


def frac_pair(head, tail, sign=1):
    """Fractional part of sign*(head + tail) for a head/tail value pair.

    head must satisfy |head| < 2^53 so that head - floor(head) is exact;
    tail is the compensation term (|tail| << 1).
    """
    a = sign * np.asarray(head, dtype=np.float64)
    b = sign * np.asarray(tail, dtype=np.float64)
    return wrap_unit((a - np.floor(a)) + b)


def frac_int_times_pair(m, head, tail):
    """Fractional part of m*(head + tail) for integer m, |m*head| < 2^53."""
    mf = np.float64(m)
    p, e = two_prod(mf, np.asarray(head, dtype=np.float64))
    f = (p - np.floor(p)) + e + mf * np.asarray(tail, dtype=np.float64)
    f = f - np.floor(f)
    return wrap_unit(f)


def nearest_int_distance(x):
    """Distance from x to the nearest integer; the tie at .5 maps to 0.5."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs(x - np.rint(x))
