"""Property tests of the error-free transforms and fractional parts,
checked against exact rational arithmetic."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from majorantlab.compensated import (
    frac_int_times_pair,
    frac_pair,
    frac_product,
    two_prod,
)

# a few units in the last place of numbers in [0, 1)
ULPS = 4 * 2.0**-52

# deterministic examples, so the suite gives the same verdict every run
exact = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


# no overflow in the splittings, no underflow in the products
prod_operand = finite(-1e150, 1e150).filter(lambda x: x == 0 or abs(x) > 1e-100)


def frac_exact(q: Fraction) -> Fraction:
    return q - math.floor(q)


def circle_distance(x: float, q: Fraction) -> Fraction:
    """Distance from x to the exact fractional part of q, mod 1."""
    d = abs(Fraction(x) - frac_exact(q))
    return min(d, 1 - d)


def check_unit(x) -> float:
    x = float(x)
    assert 0.0 <= x < 1.0
    return x


@exact
@given(prod_operand, prod_operand)
def test_two_prod_is_exact(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


# frequencies in [0, 1) times integer indices, |a b| < 2^53
@exact
@given(finite(0.0, 1.0).filter(lambda x: x < 1.0),
       st.integers(min_value=-2**52, max_value=2**52))
def test_frac_product_matches_exact_value(a, n):
    f = check_unit(frac_product(a, float(n)))
    assert circle_distance(f, Fraction(a) * n) <= ULPS


# head/tail pairs with |head| < 2^53 and a small tail
pair_head = finite(-2.0**52, 2.0**52)
pair_tail = finite(-2.0**-20, 2.0**-20)


@exact
@given(pair_head, pair_tail, st.sampled_from([1, -1]))
def test_frac_pair_matches_exact_value(head, tail, sign):
    f = check_unit(frac_pair(head, tail, sign=sign))
    assert circle_distance(f, sign * (Fraction(head) + Fraction(tail))) <= ULPS


@exact
@given(st.integers(min_value=-1000, max_value=1000),
       finite(-2.0**42, 2.0**42), finite(-2.0**-30, 2.0**-30))
def test_frac_int_times_pair_matches_exact_value(m, head, tail):
    f = check_unit(frac_int_times_pair(m, head, tail))
    assert circle_distance(f, m * (Fraction(head) + Fraction(tail))) <= ULPS
